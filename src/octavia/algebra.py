"""Exact Cayley-Dickson arithmetic for the normed division algebras.

Supports the real numbers (dim 1), complex numbers (dim 2), quaternions
(dim 4), octonions (dim 8) and, for the zero-divisor demonstration only,
the 16-dimensional sedenions.  An element is stored as integer
numerators over one positive denominator in lowest terms, so every
rational element, half-integer lattice points included, is exact and
has one representation.  Sums, products, conjugates, inner products and
inverses run on those integers; ``fractions.Fraction`` appears only in
the derived ``coords`` view and in scalar results such as ``norm_sq``.

The octonion basis follows the convention in which ``(e1, e5, e6)`` is a
quaternionic triple and the full multiplication table is generated from
the single seed relation ``e1 * e5 = e6`` by the shift rule

    e_i e_j = e_k  =>  e_{i+1} e_{j+1} = e_{k+1}

with indices counted mod 7.  ``verify_octonion_table`` checks that the
table also obeys the doubling rule ``e_{2i} e_{2j} = e_{2k}`` and that it
is the Cayley-Dickson double of its quaternion subalgebra with l = e2.
The quaternions sit inside the octonions as the span of
``(1, e1, e5, e6)``; a dim-4 element with coordinates
``(x0, x1, x2, x3)`` means ``x0 + x1*e1 + x2*e5 + x3*e6``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AlgElem",
    "associator",
    "basis_sum_zero_divisor_search",
    "basis_unit",
    "cd_multiply",
    "commutator",
    "conj",
    "find_sedenion_zero_divisors",
    "from_text",
    "inner",
    "invert",
    "left_mult_matrix",
    "moufang_residuals",
    "norm_sq",
    "one",
    "real_part",
    "right_mult_matrix",
    "structure_table",
    "to_text",
    "verify_octonion_table",
    "zero",
]

VALID_DIMS = (1, 2, 4, 8, 16)

# Quaternion coordinate slots inside the octonion basis: dim-4 coordinate k
# corresponds to octonion unit QUAT_EMBED[k].
QUAT_EMBED = (0, 1, 5, 6)

_RING_TAGS = {"r": 1, "c": 2, "quat": 4, "oct": 8, "sed": 16}
_DIM_TAGS = {d: t for t, d in _RING_TAGS.items()}


def _rotated(t) -> tuple[int, int, int]:
    """The cyclic rotation of the triple t that starts at its least index."""
    m = t.index(min(t))
    return tuple(t[m:]) + tuple(t[:m])


def _seed_triples() -> list[tuple[int, int, int]]:
    """The seven octonion multiplication triples: the shifts i -> i + s
    (s = 0..6, indices mod 7 on 1..7) of the seed (1, 5, 6), sorted.

    Each triple (i, j, k) means e_i e_j = e_k cyclically.
    """
    return sorted(_rotated([(x - 1 + s) % 7 + 1 for x in (1, 5, 6)]) for s in range(7))


def _octonion_table() -> tuple[np.ndarray, np.ndarray]:
    idx = np.zeros((8, 8), dtype=np.int64)
    sgn = np.zeros((8, 8), dtype=np.int64)
    for k in range(8):
        idx[0, k] = idx[k, 0] = k
        sgn[0, k] = sgn[k, 0] = 1
    for k in range(1, 8):
        idx[k, k] = 0
        sgn[k, k] = -1
    for (a, b, c) in _seed_triples():
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            idx[i, j] = k
            sgn[i, j] = 1
            idx[j, i] = k
            sgn[j, i] = -1
    return idx, sgn


def _restrict_table(idx, sgn, embed):
    d = len(embed)
    pos = {u: k for k, u in enumerate(embed)}
    ridx = np.zeros((d, d), dtype=np.int64)
    rsgn = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            ridx[i, j] = pos[int(idx[embed[i], embed[j]])]
            rsgn[i, j] = sgn[embed[i], embed[j]]
    return ridx, rsgn


def _double_table(idx, sgn):
    """Cayley-Dickson double of a basis table: (a+ib)(c+id) = (ac - d b~) + i(cb + a~ d).

    Basis m < d is (e_m, 0); basis m >= d is (0, e_{m-d}).  Conjugation
    negates every basis unit except index 0.
    """
    d = idx.shape[0]
    didx = np.zeros((2 * d, 2 * d), dtype=np.int64)
    dsgn = np.zeros((2 * d, 2 * d), dtype=np.int64)

    def cj(k):  # sign of conjugating basis unit k
        return 1 if k == 0 else -1

    for p in range(2 * d):
        for q in range(2 * d):
            if p < d and q < d:
                didx[p, q] = idx[p, q]
                dsgn[p, q] = sgn[p, q]
            elif p < d and q >= d:
                # (e_p, 0)(0, e_q') = (0, conj(e_p) e_q')
                qq = q - d
                didx[p, q] = idx[p, qq] + d
                dsgn[p, q] = cj(p) * sgn[p, qq]
            elif p >= d and q < d:
                # (0, e_p')(e_q, 0) = (0, e_q e_p')
                pp = p - d
                didx[p, q] = idx[q, pp] + d
                dsgn[p, q] = sgn[q, pp]
            else:
                # (0, e_p')(0, e_q') = (-e_q' conj(e_p'), 0)
                pp, qq = p - d, q - d
                didx[p, q] = idx[qq, pp]
                dsgn[p, q] = -cj(pp) * sgn[qq, pp]
    return didx, dsgn


def _readonly(a: np.ndarray) -> np.ndarray:
    """A view of a through a read-only buffer: a cached array is shared by
    every caller, so a write into it would corrupt later results.

    Clearing the writeable flag alone is not enough, since any caller can
    set it back on an array that owns its data; the flag of a view whose
    buffer is read-only cannot be set.  The view shares a's memory, so
    caching it costs no copy.  Object arrays have no buffer and raise
    ValueError: cache Python objects as tuples instead.
    """
    return np.asarray(memoryview(a).toreadonly())


@lru_cache(maxsize=None)
def structure_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis multiplication table for the algebra of the given dimension.

    Returns (idx, sgn) with e_i e_j = sgn[i,j] * e_{idx[i,j]}.
    """
    if dim not in VALID_DIMS:
        raise ValueError(f"unsupported algebra dimension {dim}")
    if dim == 8:
        table = _octonion_table()
    elif dim == 16:
        table = _double_table(*_octonion_table())
    else:
        embed = QUAT_EMBED[: {1: 1, 2: 2, 4: 4}[dim]]
        table = _restrict_table(*_octonion_table(), embed)
    return tuple(map(_readonly, table))


@lru_cache(maxsize=None)
def verify_octonion_table() -> tuple[int, ...]:
    """One-time consistency check of the octonion basis labelling.

    Checks two facts and raises RuntimeError if either fails: the triples
    are closed under the doubling rule i -> 2i, and O is the Cayley-Dickson
    double H + Hl of its quaternion subalgebra (1, e1, e5, e6) with l = e2
    (Baez, The Octonions, Bull. AMS 39, 2002).  The signed permutation
    (e_q, 0) -> e_{QUAT_EMBED[q]}, (0, e_q) -> e2 e_{QUAT_EMBED[q]} must map
    _double_table(*structure_table(4)) onto structure_table(8) on all 64
    basis products.  Returns the signed images (sign * index) of the seven
    imaginary units of the double.
    """
    triples = _seed_triples()
    if sorted(_rotated([(2 * x - 1) % 7 + 1 for x in t]) for t in triples) != triples:
        raise RuntimeError("the octonion triples are not closed under i -> 2i")
    idx, sgn = structure_table(8)
    didx, dsgn = _double_table(*structure_table(4))
    q = np.array(QUAT_EMBED)
    im = np.concatenate([q, idx[2, q]])  # double unit m -> s[m] e_{im[m]}
    s = np.concatenate([np.ones(4, dtype=np.int64), sgn[2, q]])
    # signed units as sign * (index + 1), so that e0 carries a sign too
    prod = np.outer(s, s) * sgn[np.ix_(im, im)] * (idx[np.ix_(im, im)] + 1)
    if not (np.array_equal(np.sort(im), np.arange(8))
            and np.array_equal(prod, dsgn * s[didx] * (im[didx] + 1))):
        raise RuntimeError("the octonion table is not the Cayley-Dickson double of "
                           "its quaternion subalgebra with l = e2")
    return tuple((s * im)[1:].tolist())


@dataclass(frozen=True)
class AlgElem:
    """An exact element of R, C, H, O (or the sedenions).

    Stored as integer numerators over one positive denominator in lowest
    terms: coords[k] = num[k] / den with gcd(den, *num) = 1, so equal
    elements have equal fields (and hashes).  coords and coords2 are views
    derived on first use.
    """

    dim: int
    num: tuple[int, ...]
    den: int

    def __init__(self, dim: int, coords: Iterable):
        """The element with the given rational coordinates (ints and
        Fractions as they are, anything else through Fraction)."""
        coords = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coords]
        _check_shape(dim, len(coords))
        # lowest terms already: each prime power of the lcm divides some
        # c.denominator and so not that coordinate's numerator
        den = math.lcm(*[c.denominator for c in coords])
        num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.__dict__.update(dim=dim, num=num, den=den)  # past the frozen __setattr__

    # -- constructors ------------------------------------------------------

    @classmethod
    def make(cls, dim: int, coords: Iterable) -> "AlgElem":
        return cls(dim, coords)

    @classmethod
    def from_coords2(cls, dim: int, coords2: Iterable[int]) -> "AlgElem":
        """Build from doubled-integer coordinates (2x each coefficient)."""
        c2 = tuple(map(int, coords2))
        _check_shape(dim, len(c2))
        if math.gcd(2, *c2) == 1:  # some coordinate is odd
            return _new(dim, c2, 2)
        return _new(dim, tuple(c >> 1 for c in c2), 1)

    # -- views -------------------------------------------------------------

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        """coords[k] is the rational coefficient of basis unit k."""
        return tuple(Fraction(n, self.den) for n in self.num)

    @cached_property
    def coords2(self) -> tuple[int, ...]:
        """Doubled coordinates; raises if the element is not half-integral
        (and then caches nothing)."""
        if self.den == 2:
            return self.num
        if self.den == 1:
            return tuple(n + n for n in self.num)
        raise ValueError(f"{self} is not half-integral")

    def floats(self) -> np.ndarray:
        return np.array([n / self.den for n in self.num])

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "AlgElem"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _sum(self, other, sign):
        self._check(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return _reduced(self.dim, [x * sa + y * sb for x, y in zip(self.num, other.num)], den)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return _new(self.dim, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, AlgElem):
            return cd_multiply(self, other)
        f = Fraction(other)
        return _reduced(self.dim, [x * f.numerator for x in self.num], self.den * f.denominator)

    def __rmul__(self, other):
        return self * other

    def conj(self):
        return conj(self)

    def norm_sq(self):
        return norm_sq(self)

    def inverse(self):
        return invert(self)

    def __repr__(self):
        return f"AlgElem({self.dim}, {[str(c) for c in self.coords]})"


def _check_shape(dim: int, count: int) -> None:
    if dim not in VALID_DIMS:
        raise ValueError(f"unsupported algebra dimension {dim}")
    if count != dim:
        raise ValueError("coordinate count does not match dimension")


def _new(dim: int, num: tuple[int, ...], den: int) -> AlgElem:
    """The element num / den; the caller guarantees lowest terms, den > 0."""
    a = object.__new__(AlgElem)
    d = a.__dict__  # past the frozen __setattr__, as cached_property writes
    d["dim"] = dim
    d["num"] = num
    d["den"] = den
    return a


def _reduced(dim: int, num, den: int) -> AlgElem:
    """The element num / den (den > 0) brought to lowest terms."""
    g = math.gcd(den, *num)
    if g != 1:
        return _new(dim, tuple(x // g for x in num), den // g)
    return _new(dim, tuple(num), den)


def zero(dim: int) -> AlgElem:
    return AlgElem(dim, (0,) * dim)


def one(dim: int) -> AlgElem:
    return basis_unit(dim, 0)


def basis_unit(dim: int, k: int) -> AlgElem:
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dim {dim}")
    coords = [0] * dim
    coords[k] = 1
    return AlgElem(dim, coords)


@lru_cache(maxsize=None)
def _table_rows(dim: int) -> tuple[tuple, tuple]:
    """structure_table(dim) as nested tuples of Python ints (tuples, so the
    cached rows cannot be written)."""
    return tuple(tuple(map(tuple, t.tolist())) for t in structure_table(dim))


def _int_product(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """The product of two integer coordinate sequences of one algebra
    through its structure table, as a list of Python ints."""
    idx, sgn = _table_rows(len(x))
    out = [0] * len(x)
    for a, row_i, row_s in zip(x, idx, sgn):
        if a:
            for b, k, s in zip(y, row_i, row_s):
                if b:
                    out[k] += s * a * b
    return out


def cd_multiply(a: AlgElem, b: AlgElem) -> AlgElem:
    """Exact product in the algebra shared by a and b: the numerators
    multiply through the structure table over the denominator a.den b.den."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _reduced(a.dim, _int_product(a.num, b.num), a.den * b.den)


def conj(a: AlgElem) -> AlgElem:
    return _new(a.dim, (a.num[0],) + tuple(-x for x in a.num[1:]), a.den)


def real_part(a: AlgElem) -> Fraction:
    return Fraction(a.num[0], a.den)


def inner(a: AlgElem, b: AlgElem) -> Fraction:
    """Positive-definite inner product (a,b) = (a b~ + b a~)/2."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return Fraction(sum(x * y for x, y in zip(a.num, b.num)), a.den * b.den)


def norm_sq(a: AlgElem) -> Fraction:
    return inner(a, a)


def invert(a: AlgElem) -> AlgElem:
    """Exact inverse a~ / |a|^2 = a~ num den / |num|^2; defined for dim <= 8
    only."""
    if a.dim == 16:
        raise ValueError("sedenions have no division")
    n = sum(x * x for x in a.num)
    if n == 0:
        raise ZeroDivisionError("cannot invert zero")
    return _reduced(a.dim, [x * a.den for x in conj(a).num], n)


def commutator(a: AlgElem, b: AlgElem) -> AlgElem:
    return cd_multiply(a, b) - cd_multiply(b, a)


def associator(a: AlgElem, b: AlgElem, c: AlgElem) -> AlgElem:
    """{a,b,c} = a(bc) - (ab)c; identically zero for dim <= 4."""
    return cd_multiply(a, cd_multiply(b, c)) - cd_multiply(cd_multiply(a, b), c)


def moufang_residuals(a: AlgElem, x: AlgElem, y: AlgElem) -> tuple[AlgElem, AlgElem, AlgElem]:
    """The three Moufang identity defects; all zero for alternative algebras."""
    m1 = cd_multiply(cd_multiply(a, x), cd_multiply(y, a)) - cd_multiply(
        cd_multiply(a, cd_multiply(x, y)), a
    )
    aya = cd_multiply(cd_multiply(a, y), a)
    m2 = cd_multiply(cd_multiply(cd_multiply(x, a), y), a) - cd_multiply(x, aya)
    axa = cd_multiply(cd_multiply(a, x), a)
    m3 = cd_multiply(a, cd_multiply(x, cd_multiply(a, y))) - cd_multiply(axa, y)
    return m1, m2, m3


def _zero_divisor_rows(dim: int):
    """Yield (p, qs) for each basis-unit sum p = e_a + s e_b (0 < a < b,
    s = 1 then -1, pairs in combination order) that has partners: the
    rows q of the same form with pq = 0, in the same order; one batched
    _mult4 per p."""
    eye = np.eye(dim, dtype=np.int64)
    sums = np.array([eye[a] + s * eye[b] for a, b in itertools.combinations(range(1, dim), 2)
                     for s in (1, -1)], dtype=np.int64).reshape(-1, dim)
    for p in sums:
        hits = sums[~_mult4(np.broadcast_to(p, sums.shape), sums).any(axis=1)]
        if len(hits):
            yield p.tolist(), hits.tolist()


def find_sedenion_zero_divisors() -> tuple[AlgElem, AlgElem, Fraction, Fraction, Fraction]:
    """Search sums of two basis units for a sedenion zero-divisor pair.

    Returns (p, q, |pq|^2, |p|^2, |q|^2) with p*q = 0, p != 0, q != 0;
    the norms witness the failure of |pq| = |p||q|.
    """
    for p, qs in _zero_divisor_rows(16):
        p, q = AlgElem.make(16, p), AlgElem.make(16, qs[0])
        return p, q, norm_sq(cd_multiply(p, q)), norm_sq(p), norm_sq(q)
    raise RuntimeError("no sedenion zero divisors found in search space")


def basis_sum_zero_divisor_search(dim: int):
    """Exhaustive zero-divisor scan over basis-unit sums; [] for dim <= 8."""
    return [(AlgElem.make(dim, p), AlgElem.make(dim, q))
            for p, qs in _zero_divisor_rows(dim) for q in qs]


# -- numeric helpers for vectorized lattice work ---------------------------


# rows x dim^2 products per block of _mult4: the block's int64 temporaries
# (128 KiB each) stay in cache, and a single row pays for one block only
_BLOCK_PRODUCTS = 1 << 14


@lru_cache(maxsize=None)
def _product_table(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (dim^2,) tables (xi, yi, sign), position dim i + k holding
    xi = i and the j with e_i e_j = sign e_k: so (x y)_k is the sum over
    i of sign x_xi y_yi at positions dim i + k."""
    idx, sgn = structure_table(dim)
    perm = np.argsort(idx, axis=1)
    xi = np.repeat(np.arange(dim), dim)
    return tuple(map(_readonly, (xi, perm.ravel(),
                                 np.take_along_axis(sgn, perm, axis=1).ravel())))


def _mult4(x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Row-wise product of doubled coordinates, unhalved: 4 (x2/2)(y2/2)
    (on plain integer coordinates, the product itself).

    Rows are int64 or Python-int objects, and may be read-only or
    broadcast views.  Each block of _BLOCK_PRODUCTS // dim^2 rows (one
    empty block for no rows) gathers the (rows, dim^2) factors x_i and
    y_j through the flat _product_table, multiplies them and the signs,
    and sums over i in the (rows, dim, dim) reshape.
    """
    dim = x2.shape[1]
    xi, yi, sign = _product_table(dim)
    step = _BLOCK_PRODUCTS // (dim * dim)
    parts = []
    for s in range(0, len(x2) or 1, step):
        t = x2[s:s + step, xi] * y2[s:s + step, yi]
        t *= sign
        parts.append(np.add.reduce(t.reshape(-1, dim, dim), axis=1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _mult2(x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Row-wise algebra product on doubled coordinates, 2 (x2/2)(y2/2)."""
    raw = _mult4(x2, y2)
    if (raw & 1).any():
        raise ArithmeticError("product left the half-integer lattice")
    return raw >> 1


@lru_cache(maxsize=None)
def _structure_float(dim: int) -> np.ndarray:
    """Structure constants S with (ab)_k = sum_ij S[i,j,k] a_i b_j."""
    idx, sgn = structure_table(dim)
    S = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            S[i, j, int(idx[i, j])] = float(sgn[i, j])
    return _readonly(S)


def left_mult_matrix(a: Sequence[float], dim: int) -> np.ndarray:
    """Matrix L with L @ x = coords(a * x) for float coordinate vectors."""
    S = _structure_float(dim)
    return np.einsum("i,ijk->kj", np.asarray(a, dtype=float), S)


def right_mult_matrix(b: Sequence[float], dim: int) -> np.ndarray:
    """Matrix R with R @ x = coords(x * b) for float coordinate vectors."""
    S = _structure_float(dim)
    return np.einsum("j,ijk->ki", np.asarray(b, dtype=float), S)


# -- text format -----------------------------------------------------------


def to_text(a: AlgElem) -> str:
    """Serialize as '<ring>:<c0>,<c1>,...' with doubled-integer coordinates."""
    tag = _DIM_TAGS[a.dim]
    return tag + ":" + ",".join(str(c) for c in a.coords2)


def from_text(s: str) -> AlgElem:
    try:
        tag, rest = s.split(":", 1)
        dim = _RING_TAGS[tag.strip().lower()]
        coords2 = [int(x) for x in rest.split(",")]
    except (ValueError, KeyError) as exc:
        raise ValueError(f"cannot parse element text {s!r}") from exc
    if len(coords2) != dim:
        raise ValueError(f"expected {dim} coordinates in {s!r}")
    return AlgElem.from_coords2(dim, coords2)
