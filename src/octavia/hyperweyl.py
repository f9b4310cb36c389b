"""Hyperbolic Weyl group machinery on the Jordan algebra H2(A).

Hermitian 2x2 matrices X = [[x+, x], [conj(x), x-]] carry the Lorentzian
norm -x+x- + |x|^2.  Group elements are words in the even generator
tokens Inv (s_-1), Trans(q) (t_q) and Rot(eps) (u_eps).  act_coords, a
closed entrywise formula per token, is their one action: on HermMat, and
on points and jets of the upper half plane (uhp), so octonion
non-associativity never enters.  Coset words w_{a,c} and w~_{c,d} are
built from Euclidean traces; for associative rings the words also carry
exact 2x2 matrix forms with the quaternionic determinant and inverse.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import (
    AlgElem,
    _halving_kernel,
    _is_unit_norm,
    _mult2,
    _reduced,
    cd_multiply,
    commutator,
    conj,
    left_mult_matrix,
    norm_sq,
    one,
    real_part,
    zero,
)
from .rings import (
    HURWITZ,
    Ring,
    Z,
    _EUCLID_BATCH,
    _check_members,
    _elem,
    _euclid_rows,
    _exact_rows,
    _null_vectors,
    _require_int,
    _unit_orbit_min,
    is_in_commutator_ideal,
    is_left_coprime,
    is_unit,
    left_euclid,
    random_element,
    right_euclid,
    units,
)
from .rootsys import sandwich_map

__all__ = [
    "GroupWord",
    "HermMat",
    "Inv",
    "Rot",
    "Trans",
    "act_coords",
    "apply_word",
    "build_w_ac",
    "build_w_tilde_cd",
    "canonical_pair",
    "coset_reps",
    "delta",
    "matrix_of_word",
    "minus_delta",
    "orbit_target",
    "psl0_membership",
    "psl_det",
    "psl_det_real_crosscheck",
    "psl_inverse",
    "random_word",
    "row_act",
    "simple_alpha",
]


# -- Hermitian matrices ----------------------------------------------------


@dataclass(frozen=True)
class HermMat:
    """X = [[x_plus, x], [conj(x), x_minus]] with rational diagonal."""

    x_plus: Fraction
    x_minus: Fraction
    x: AlgElem

    @classmethod
    def make(cls, x_plus, x_minus, x: AlgElem) -> "HermMat":
        return cls(Fraction(x_plus), Fraction(x_minus), x)

    @property
    def dim(self) -> int:
        return self.x.dim

    def norm_sq(self) -> Fraction:
        return -self.x_plus * self.x_minus + norm_sq(self.x)

    def bilinear(self, other: "HermMat") -> Fraction:
        return ((self + other).norm_sq() - self.norm_sq() - other.norm_sq()) / 2

    def __add__(self, other):
        return HermMat(self.x_plus + other.x_plus, self.x_minus + other.x_minus,
                       self.x + other.x)

    def __neg__(self):
        return HermMat(-self.x_plus, -self.x_minus, -self.x)


@lru_cache(maxsize=None)
def delta(dim: int) -> HermMat:
    """The affine null root direction: delta = [[-1, 0], [0, 0]], built
    once per dim (only the valid dims, so at most five entries)."""
    return HermMat(Fraction(-1), Fraction(0), zero(dim))


@lru_cache(maxsize=None)
def minus_delta(dim: int) -> HermMat:
    return -delta(dim)


def simple_alpha(ring: Ring, index) -> HermMat:
    """Simple roots of the over-extended algebra in H2(A).

    index -1 is the over-extended root, 0 the affine root, i >= 1 the
    finite simple roots ring.basis2 embedded in the off-diagonal (Z: the
    root 1, which gives AE3); any other index raises ValueError.
    """
    dim, n = ring.dim, len(ring.basis2)
    if not -1 <= index <= n:
        raise ValueError(f"simple root index {index} of {ring.name} is outside -1..{n}")
    if index == -1:
        return HermMat(Fraction(1), Fraction(-1), zero(dim))
    if index == 0:
        return HermMat(Fraction(-1), Fraction(0), -one(dim))
    return HermMat(Fraction(0), Fraction(0), _elem(dim, ring.basis2[index - 1]))


# -- generator tokens ------------------------------------------------------


@dataclass(frozen=True)
class Inv:
    """s_-1: swap the diagonal, x -> -conj(x)."""


@dataclass(frozen=True)
class Trans:
    """t_y: translation by the ring element y."""

    y: AlgElem


@dataclass(frozen=True)
class Rot:
    """u_eps: x -> eps x eps, diagonal fixed (unit eps)."""

    eps: AlgElem


def _halve(v):
    """v / 2: on ints an exact shift that raises ArithmeticError on an odd
    value instead of rounding down, on anything else true division."""
    if type(v) is int:
        if v & 1:
            raise ArithmeticError("halving an odd integer; scale the input first")
        return v >> 1
    return v / 2


def act_coords(tokens, x_plus, x_minus, x):
    """The tokens, rightmost first, on the coordinates of [[x_plus, x],
    [conj(x), x_minus]]: Inv swaps x_plus, x_minus and takes x to -conj(x);
    Trans(y) adds 2 (x, y) + x_minus |y|^2 to x_plus and y x_minus to x;
    Rot(eps) takes x to eps x eps.

    Token data enter as integers (doubled coordinates of y, doubled rows
    of sandwich_map(eps)), and each step halves: Trans twice (x_minus / 2,
    then its product with |y2|^2), Rot once.  So the loop runs on floats
    and uhp.Jet2 (by true division) and on Fractions, and it is exact on
    ints scaled by S = D 2^e, e = 2 #Trans + #Rot, when the input
    denominators divide D: after k halvings every value's denominator
    divides D 2^k, so its scaled value is an int divisible by 2^(e - k)
    and each halving is an exact shift (apply_word)."""
    x = list(x)
    for tok in reversed(tokens):
        if isinstance(tok, Inv):
            x_plus, x_minus = x_minus, x_plus
            x[0] = -x[0]
        elif isinstance(tok, Trans):
            y2 = tok.y.coords2
            h = _halve(x_minus)
            x_plus = (x_plus + sum([a * b for a, b in zip(x, y2) if b])
                      + _halve(h * sum(map(operator.mul, y2, y2))))
            x = [a + b * h if b else a for a, b in zip(x, y2)]
        elif isinstance(tok, Rot):
            # column j of the doubled rows holds the coefficients of x_j
            x = [_halve(sum([a * r for a, r in zip(x, col) if r]))
                 for col in zip(*sandwich_map(tok.eps).rows2)]
        else:
            raise TypeError(f"unknown token {tok!r}")
    return x_plus, x_minus, x


@dataclass(frozen=True)
class GroupWord:
    """Word of generator tokens in matrix-product order (leftmost acts last)."""

    ring: Ring
    tokens: tuple

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")
        return GroupWord(self.ring, self.tokens + other.tokens)

    def inverse(self) -> "GroupWord":
        inv_toks = []
        for tok in reversed(self.tokens):
            if isinstance(tok, Inv):
                # s_-1 has order 2 on H2
                inv_toks.append(Inv())
            elif isinstance(tok, Trans):
                inv_toks.append(Trans(-tok.y))
            else:
                inv_toks.append(Rot(conj(tok.eps)))
        return GroupWord(self.ring, tuple(inv_toks))


def random_word(ring: Ring, rng, length: int, max_coord2: int) -> GroupWord:
    """Word of `length` tokens, each Inv, Trans(random_element(ring, rng,
    max_coord2)) or Rot(a random unit) with probability 1/3."""
    toks = []
    for _ in range(length):
        k = rng.randrange(3)
        if k == 0:
            toks.append(Inv())
        elif k == 1:
            toks.append(Trans(random_element(ring, rng, max_coord2)))
        else:
            toks.append(Rot(rng.choice(units(ring))))
    return GroupWord(ring, tuple(toks))


def apply_word(w: GroupWord, X: HermMat) -> HermMat:
    """The word acting on X, exactly; the rightmost token acts first.

    X is lifted to ints over one denominator S = D 2^e (D the lcm of its
    denominators, e = 2 #Trans + #Rot), so act_coords halves by shifts and
    no Fraction is made until the result."""
    if X.dim != w.ring.dim:
        raise ValueError("ring mismatch between word and matrix")
    e = sum(2 if isinstance(t, Trans) else 1 if isinstance(t, Rot) else 0 for t in w.tokens)
    xp, xm, x = Fraction(X.x_plus), Fraction(X.x_minus), X.x
    S = math.lcm(xp.denominator, xm.denominator, x.den) << e
    x_plus, x_minus, num = act_coords(
        w.tokens, xp.numerator * (S // xp.denominator),
        xm.numerator * (S // xm.denominator), [n * (S // x.den) for n in x.num])
    return HermMat(Fraction(x_plus, S), Fraction(x_minus, S), _reduced(X.dim, num, S))


def row_act(row, w: GroupWord):
    """Right action of the word on a row (a1, a2), token by token: Inv
    takes it to (a2, -a1), Trans(y) to (a1, a1 y + a2) and Rot(eps) to
    (a1 eps, a2 conj(eps)).

    As in apply_word, the row is lifted to integer numerators over one
    denominator S = D 2^e (D the lcm of its denominators, e = #Trans +
    #Rot), and each product with the doubled coordinates of y or eps
    (half-integral, as act_coords requires) is one _halving_kernel: a
    token adds at most one halving to the history of each value, so every
    numerator stays an integer and no AlgElem is made until the result.

    Rows are only defined up to a global sign; callers compare rows as
    equal up to a global sign (r ~ -r).
    """
    a1, a2 = row
    dim = a1.dim
    if a2.dim != dim:
        raise ValueError(f"dimension mismatch: {dim} vs {a2.dim}")
    halving = _halving_kernel(dim)
    S = math.lcm(a1.den, a2.den) << sum(not isinstance(t, Inv) for t in w.tokens)
    n1 = [n * (S // a1.den) for n in a1.num]
    n2 = [n * (S // a2.den) for n in a2.num]
    for tok in w.tokens:
        if isinstance(tok, Inv):
            n1, n2 = n2, [-v for v in n1]
        elif isinstance(tok, Trans):
            n2 = list(map(operator.add, halving(n1, tok.y.coords2), n2))
        else:
            eps2 = tok.eps.coords2
            bar2 = [-v for v in eps2]
            bar2[0] = eps2[0]
            n1, n2 = halving(n1, eps2), halving(n2, bar2)
    return _reduced(dim, n1, S), _reduced(dim, n2, S)


# -- coset words -----------------------------------------------------------


def build_w_ac(ring: Ring, a: AlgElem, c: AlgElem) -> GroupWord:
    """w_{a,c} = t_{q1} o s_-1 o ... o t_{q_{n+1}} o s_-1 o u_{r_n} from the
    right Euclidean algorithm; satisfies
    w_{a,c}(-delta) = [[|a|^2, a conj(c)], [c conj(a), |c|^2]]."""
    if c.is_zero():
        if not is_unit(ring, a):
            raise ValueError("(a, 0) requires a to be a unit")
        return GroupWord(ring, (Rot(a),))
    tr = right_euclid(ring, a, c)
    if not _is_unit_norm(tr.last_divisor):
        raise ValueError("(a, c) must be right coprime")
    toks = []
    for q in tr.quotients:
        toks.append(Trans(q))
        toks.append(Inv())
    toks.append(Rot(tr.last_divisor))
    return GroupWord(ring, tuple(toks))


def build_w_tilde_cd(ring: Ring, c: AlgElem, d: AlgElem) -> GroupWord:
    """w~_{c,d} = u_{conj(r_n)} o s_-1 o t_{q_{n+1}} o ... o s_-1 o t_{q1}
    from the left algorithm on (d, c); satisfies (0,1).w~_{c,d} = (c, d)
    up to sign."""
    if c.is_zero():
        if not is_unit(ring, d):
            raise ValueError("(0, d) requires d to be a unit")
        return GroupWord(ring, (Rot(conj(d)),))
    tr = left_euclid(ring, d, c)
    if not _is_unit_norm(tr.last_divisor):
        raise ValueError("(d, c) must be left coprime")
    toks = [Rot(conj(tr.last_divisor)), Inv()]
    for q in reversed(tr.quotients):
        toks.append(Trans(q))
        toks.append(Inv())
    toks.pop()  # the leading s_-1 belongs between rot and the last t_q only
    return GroupWord(ring, tuple(toks))


def orbit_target(a: AlgElem, c: AlgElem) -> HermMat:
    """[[|a|^2, a conj(c)], [c conj(a), |c|^2]], the image of -delta."""
    return HermMat(norm_sq(a), norm_sq(c), cd_multiply(a, conj(c)))


# -- 2x2 matrix forms (associative rings only) -----------------------------


def matrix_of_word(w: GroupWord):
    """Exact 2x2 matrix of the word; associative rings only."""
    if w.ring.dim > 4:
        raise ValueError("matrix forms exist only for associative rings")
    dim = w.ring.dim
    o, zz = one(dim), zero(dim)
    mat = ((o, zz), (zz, o))

    def mul(m1, m2):
        return tuple(
            tuple(
                cd_multiply(m1[i][0], m2[0][j]) + cd_multiply(m1[i][1], m2[1][j])
                for j in range(2)
            )
            for i in range(2)
        )

    for tok in w.tokens:
        if isinstance(tok, Inv):
            t = ((zz, -o), (o, zz))
        elif isinstance(tok, Trans):
            t = ((o, tok.y), (zz, o))
        else:
            t = ((tok.eps, zz), (zz, conj(tok.eps)))
        mat = mul(mat, t)
    return mat


def psl_det(S) -> Fraction:
    """det(S S-dagger) = |ad - bc|^2 - 2 Re(a [conj(c), d] conj(b))."""
    (a, b), (c, d) = S
    main = norm_sq(cd_multiply(a, d) - cd_multiply(b, c))
    corr = real_part(
        cd_multiply(cd_multiply(a, commutator(conj(c), d)), conj(b))
    )
    return main - 2 * corr


def psl_det_real_crosscheck(S) -> float:
    """Determinant of the 8x8 (or 2dim x 2dim) real matrix of the left
    action (x1, x2) -> (a x1 + b x2, c x1 + d x2); equals psl_det^2."""
    (a, b), (c, d) = S
    dim = a.dim
    def lm(x):
        return left_mult_matrix(x.floats(), dim)

    blocks = [[lm(a), lm(b)], [lm(c), lm(d)]]
    m = np.block(blocks)
    return float(np.linalg.det(m))


def psl_inverse(S):
    """Closed-form inverse, exact when det(S S-dagger) = 1."""
    (a, b), (c, d) = S
    det = psl_det(S)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    m = cd_multiply
    inv = (
        (
            conj(a) * norm_sq(d) - m(m(conj(c), d), conj(b)),
            conj(c) * norm_sq(b) - m(m(conj(a), b), conj(d)),
        ),
        (
            conj(b) * norm_sq(c) - m(m(conj(d), c), conj(a)),
            conj(d) * norm_sq(a) - m(m(conj(b), a), conj(c)),
        ),
    )
    if det != 1:
        inv = tuple(tuple(x * (1 / det) for x in row) for row in inv)
    return inv


def psl0_membership(S) -> bool:
    """S in PSL0(2, H): unit determinant and ad - bc = 1 mod the
    commutator ideal."""
    (a, b), (c, d) = S
    _check_members(HURWITZ, a, b, c, d)
    if psl_det(S) != 1:
        return False
    return is_in_commutator_ideal(cd_multiply(a, d) - cd_multiply(b, c) - one(4))


# -- coset representatives -------------------------------------------------


def _replayed_rows(ring: Ring, chain, m: int, dtype) -> np.ndarray:
    """Rows (c, d), (m, 2 dim), whose left Euclid chain on (d, c) runs the
    quotients of chain (an _euclid_rows record) down to the least unit:
    from (s, s') = (least unit, 0), step k = L..1 takes (s, s') to
    (s q_k - s', s), ending at (d, c); rows outside chain get (0, s)."""
    s = np.tile(np.array(units(ring)[0].coords2, dtype=dtype), (m, 1))
    s_next = np.zeros_like(s)
    for rows, q, _ in reversed(chain):
        cur = s[rows]
        s[rows] = _mult2(cur, q) - s_next[rows]
        s_next[rows] = cur
    return np.concatenate([s_next, s], axis=1)


def _canonical_rows(ring: Ring, c2, d2) -> np.ndarray:
    """Canonical representatives (c, d) of the left-coprime rows of the
    (M, dim) doubled coordinates c2, d2, as (M, 2 dim) rows, one per row;
    the caller decides coprimality (coset_reps, is_left_coprime, left_content).

    The class of (c, d) is canonicalized by the ring's data:
      associative: the lexicographically least of the rows (u c, u d)
                over the units u; Z instead takes the sign that makes
                the leading nonzero entry positive;
      otherwise:   the replay of the left Euclid chain on (d, c)
                (_replayed_rows); coset_reps replays the chain on (x, k),
                whose quotients are the same (ROADMAP finding 2, checked
                up to octavian bound 4).
    """
    c2, d2 = _exact_rows(c2, d2)
    if ring is Z:  # the golden coset-z-* rows pin the sign rule
        lead = np.where(c2[:, :1] != 0, c2[:, :1], d2[:, :1])
        return np.concatenate([c2, d2], axis=1) * np.where(lead < 0, -1, 1)
    if ring.associative:
        return _unit_orbit_min(ring, c2, d2)
    chain = _euclid_rows(ring, d2, c2, "left", record=True)[1]
    return _replayed_rows(ring, chain, len(c2), c2.dtype)


def canonical_pair(ring: Ring, c: AlgElem, d: AlgElem):
    """Canonical representative of the class of the left-coprime row
    (c, d) in Gamma_infinity \\ Gamma (the rule of _canonical_rows);
    raises ValueError when (c, d) is not left coprime."""
    _check_members(ring, c, d)
    if not is_left_coprime(ring, d, c):
        raise ValueError("(c, d) must be left coprime")
    row = _canonical_rows(ring, [c.coords2], [d.coords2])[0].tolist()
    dim = ring.dim
    return AlgElem.from_coords2(dim, row[:dim]), AlgElem.from_coords2(dim, row[dim:])


def coset_reps(ring: Ring, norm_bound: int) -> np.ndarray:
    """Canonical representatives (c, d) of the classes in
    Gamma_infinity \\ Gamma that have a left-coprime row with
    max(|c|^2, |d|^2) <= norm_bound: a fresh (K, 2 dim) int64 array of
    doubled coordinates (c2 | d2), one row per class, sorted
    lexicographically.

    Each class is one primitive null vector (k, x, l) of
    rings._null_vectors, the key (|c|^2, c^-bar d, |d|^2) of its rows.
    The left Euclid chain on (x, k) reads k^-1 x = c^-1 d, so it runs the
    quotients of the chain on (d, c) (ROADMAP finding 2, checked up to
    octavian bound 4) and its last divisor has norm k (checked).  Its
    replay (_replayed_rows) is the octavian canonical row; Z and Hurwitz
    then take their unit rule (_canonical_rows).  One Euclid batch runs
    per _EUCLID_BATCH vectors, into one array that is sorted once.
    """
    _require_int("norm_bound", norm_bound)
    if norm_bound < 1:
        raise ValueError("norm_bound must be >= 1")
    n = ring.dim
    table = _null_vectors(ring, norm_bound)
    rows = np.empty((len(table), 2 * n), dtype=np.int64)
    for lo in range(0, len(table), _EUCLID_BATCH):
        x2, k = table[lo:lo + _EUCLID_BATCH, :n], table[lo:lo + _EUCLID_BATCH, n]
        g2 = np.outer(2 * k, np.eye(1, n, dtype=np.int64))  # k as a ring element
        content, chain = _euclid_rows(ring, x2, g2, "left", record=True)
        if not np.array_equal(content, 4 * k):
            raise ArithmeticError(f"a null vector of {ring} gave no row (c, d)")
        cd = _replayed_rows(ring, chain, len(k), np.int64)
        if ring.associative:
            cd = _canonical_rows(ring, cd[:, :n], cd[:, n:])
        rows[lo:lo + len(k)] = cd
    del table, x2, k  # the sort copies the rows
    return rows[np.lexsort(rows.T[::-1])]
