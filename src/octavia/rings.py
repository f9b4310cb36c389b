"""Integer rings inside the division algebras.

Three rings are supported: the rational integers Z (dim 1), the Hurwitz
quaternions H (dim 4: all-integer or all-half-integer coordinates, the
D4 root lattice) and the octavians O (dim 8, the E8 root lattice).

Each ring is one Ring record, defined by the simple-root basis of its
lattice (Ring.basis2).  Construction A derives the rest from it: the
glue code (_cosets) gives membership and the ball, and the units are the
norm-1 shell of the ball, counted against the divisor sieve (Conway &
Sloane, SPLAG, ch. 4 and 8).

Provides membership tests, unit enumeration, nearest-lattice-point
decoding, sided Euclidean algorithms on integer doubled coordinates,
coprimality, shell counts and the Hurwitz commutator ideal.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    AlgElem,
    _compiled,
    _from2,
    _halving_kernel,
    _is_unit_norm,
    _mult2,
    _readonly,
    _structure_float,
    basis_unit,
    cd_multiply,
    commutator,
    one,
)

__all__ = [
    "D4_SIMPLE_ROOTS",
    "E8_SIMPLE_ROOTS",
    "EuclTrace",
    "HURWITZ",
    "OCTAVIAN",
    "Ring",
    "Z",
    "ball_elements",
    "commutator_ideal_basis",
    "commutator_ideal_index",
    "common_right_divisors",
    "enumerate_ball",
    "is_in_commutator_ideal",
    "is_left_coprime",
    "is_member",
    "is_right_coprime",
    "is_unit",
    "left_content",
    "left_euclid",
    "nearest",
    "octavian_unit_classes",
    "random_element",
    "right_euclid",
    "ring_by_name",
    "shell_counts",
    "units",
]


@dataclass(frozen=True, eq=False)
class Ring:
    """One supported integer ring, as data.

    basis2 holds the doubled coordinates of the simple roots, a Z-basis of
    the lattice and the one definition of the ring; associative says
    whether (e c) z = e (c z) for every unit e; shells = (factor, power,
    step) is the sieve of shell_counts: factor times the sum of d^power
    over the divisors d = 1 mod step of k, or factor per square k when
    step is 0.  The rings are module singletons, so a record hashes by
    identity (eq=False), which each lru_cache keyed on a ring does on
    every call.
    """

    name: str
    dim: int
    basis2: tuple[tuple[int, ...], ...]
    associative: bool
    shells: tuple[int, int, int]

    def __repr__(self):
        return f"Ring({self.name})"


# D4 in quaternion coordinates (1, e1, e5, e6); E8 in octonion
# coordinates, chosen so the E7 roots are imaginary, the extra 112 roots
# are Brandt numbers and the highest root is 1.
Z = Ring("Z", 1, ((2,),), True, (2, 0, 0))
HURWITZ = Ring("hurwitz", 4, (
    (0, 2, 0, 0),       # e1
    (1, -1, -1, -1),    # (1 - e1 - e5 - e6)/2
    (0, 0, 2, 0),       # e5
    (0, 0, 0, 2),       # e6
), True, (24, 1, 2))
OCTAVIAN = Ring("octavian", 8, (
    (1, -1, 0, 0, 0, -1, -1, 0),
    (0, 2, 0, 0, 0, 0, 0, 0),
    (0, -1, -1, 0, 0, 0, 1, 1),
    (0, 0, 2, 0, 0, 0, 0, 0),
    (0, 0, -1, -1, -1, 0, 0, -1),
    (0, 0, 0, 2, 0, 0, 0, 0),
    (0, 0, 0, -1, 0, 1, -1, 1),
    (0, 0, 0, 0, 2, 0, 0, 0),
), False, (240, 3, 1))

_RINGS = {r.name.lower(): r for r in (Z, HURWITZ, OCTAVIAN)}


def ring_by_name(name: str) -> Ring:
    try:
        return _RINGS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown ring {name!r}; expected one of {sorted(_RINGS)}")


def _require_int(name: str, value) -> None:
    """ValueError unless value is a Python or numpy integer: a float bound,
    radius or grid would truncate or tick at the wrong places without an
    error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def _elem(dim, coords2):
    return AlgElem.from_coords2(dim, coords2)


D4_SIMPLE_ROOTS = tuple(_elem(4, b2) for b2 in HURWITZ.basis2)
E8_SIMPLE_ROOTS = tuple(_elem(8, b2) for b2 in OCTAVIAN.basis2)


@lru_cache(maxsize=None)
def _cosets(ring: Ring) -> tuple[tuple[int, ...], ...]:
    """Glue vectors g with 2 * ring = union of the cosets g + 2 Z^dim,
    sorted: the GF(2) span of the doubled simple roots mod 2.

    Every ring contains Z^dim, so it is the Construction A lattice of this
    code: {0} for Z, {0000, 1111} for the Hurwitz ring and the [8,4]
    extended Hamming code for the octavians.
    """
    code = {(0,) * ring.dim}
    for b2 in ring.basis2:
        code |= {tuple((c + b) % 2 for c, b in zip(w, b2)) for w in code}
    return tuple(sorted(code))


# -- units -----------------------------------------------------------------


@lru_cache(maxsize=None)
def units(ring: Ring) -> tuple[AlgElem, ...]:
    """All invertible ring elements, sorted by coords: the norm-1 shell of
    enumerate_ball, whose size the divisor sieve checks."""
    pts = enumerate_ball(ring, 1)
    out = tuple(_elem(ring.dim, row) for row in pts[(pts * pts).sum(axis=1) == 4])
    expected = shell_counts(ring, 1)[0]
    if len(out) != expected:
        raise RuntimeError(f"{ring} has {len(out)} units, expected {expected}")
    return out


@lru_cache(maxsize=None)
def octavian_unit_classes() -> tuple[tuple[AlgElem, ...], tuple[AlgElem, ...], tuple[AlgElem, ...]]:
    """The 240 unit octavians split by real part, each class sorted by
    coords: (2 real, +-1; 112 Brandt, +-1/2; 126 imaginary, 0)."""
    classes = {2: [], 1: [], 0: []}
    for u in units(OCTAVIAN):
        classes[abs(u.coords2[0])].append(u)
    return tuple(tuple(classes[k]) for k in (2, 1, 0))


def is_unit(ring: Ring, x: AlgElem) -> bool:
    return is_member(ring, x) and _is_unit_norm(x)


# -- membership ------------------------------------------------------------


def is_member(ring: Ring, x: AlgElem) -> bool:
    """True iff x lies on the ring lattice."""
    if x.dim != ring.dim:
        raise ValueError(f"dimension mismatch: element dim {x.dim}, ring dim {ring.dim}")
    # every ring contains Z^dim; half-integers must follow the glue code
    return x.den == 1 or (x.den == 2 and tuple([n & 1 for n in x.num]) in _cosets(ring))


# -- nearest-point decoding ------------------------------------------------


@lru_cache(maxsize=None)
def _coset_matrix(ring: Ring) -> np.ndarray:
    return _readonly(np.array(_cosets(ring), dtype=np.int64))


@lru_cache(maxsize=None)
def _decode_tables(ring: Ring) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(g, g^T, w, g @ w) for _decode2: the (K, dim) glue code, its
    transpose, the bit weights w_i = 2^(dim-1-i) and each codeword's bits
    as one integer."""
    g = _coset_matrix(ring)
    w = 1 << np.arange(ring.dim - 1, -1, -1)
    return tuple(map(_readonly, (g, np.ascontiguousarray(g.T), w, g @ w)))


def _decode2(ring: Ring, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Doubled coordinates of the ring point nearest to each row num / den.

    num holds (M, dim) doubled-coordinate numerators and den one positive
    denominator per row.  Integer input (int64 or Python-int objects)
    decodes exactly; float input decodes to rounding.  Of equally near
    points the lexicographically least doubled coordinates win.

    Each coordinate x = num / den is rounded alone to its nearest even
    value v0 = -2k and nearest odd value v1 = v0 +- 1, halves down, so the
    squared distance to the best point of each of the K <= 2 dim cosets
    is a sum of per-coordinate errors (soft-decision decoding of the glue
    code; Conway & Sloane, IEEE Trans. Inf. Theory 28, 1982).  With
    d0 = den (x - v0), the squared errors times den^2 are e0 = d0^2 and
    e1 = (den - |d0|)^2, so coset k lies e0.sum() + den (den - 2 |d0|)
    @ g[k] away, times den^2: the row
    constant and the factor den > 0 leave the order of the cosets alone,
    and one matmul (den - 2 |d0|) @ g^T ranks all K.  Its entries stay
    within dim den, and every other term within |num| + 2 den, inside
    the bound _exact_rows checks.  Of the nearest cosets, the least tie
    rank (g @ w) XOR ((v1 < v0) @ w) wins (see below).  Memory stays
    O(M (dim + K)).
    """
    g, gt, w, gw = _decode_tables(ring)
    den = den[:, None]
    den2 = den + den
    k = (den - num) // den2
    d0 = num + k * den2
    up = d0 > 0  # v1 = v0 + 1, else v0 - 1 (a tie goes down)
    a = np.abs(d0)
    dist = (den - a - a) @ gt  # the squared distances, less e0.sum(), over den
    # Two cosets' points first differ where the codewords do, and there
    # the one taking the smaller of v0, v1 is less.  So the rank below,
    # with bit i (most significant first) set where coset k takes the
    # larger value, orders the points lexicographically: coset k takes
    # the larger value where its codeword bit differs from v1 < v0 (~up),
    # so the rank is the XOR of the two bit patterns.
    rank = gw ^ (~up @ w)[:, None]
    rank = np.where(dist == dist.min(axis=1, keepdims=True), rank, 1 << ring.dim)
    return g[rank.argmin(axis=1)] * np.where(up, 1, -1) - (k + k)


@lru_cache(maxsize=None)
def _nearest2(ring: Ring):
    """The one-point decoder of the ring: the function (num, den) -> the
    doubled coordinates of the ring point nearest to num / den, a tuple of
    Python ints, for a sequence num of ring.dim ints (another length
    raises ValueError) and an int den > 0.  It is one row of _decode2, by
    the same rule and tie rank, compiled to loop-free code per coordinate
    and per codeword g of the glue code, whose bits are the integer
    g @ w, w_i = 2^(dim-1-i):
      k_i = (den - n_i) // 2 den        v0 = -2 k_i
      d_i = n_i + 2 k_i den             v1 = v0 + 1 if d_i > 0 else v0 - 1
      a_i = den - 2 |d_i|               coset g lies const + den (g @ a)
    The first nearest coset wins; after a scan in which two distances
    tied, a second pass takes the least rank (g @ w) XOR ((v1 < v0) @ w)
    among all nearest cosets."""
    dim, code = ring.dim, _cosets(ring)
    bits = [1 << (dim - 1 - i) for i in range(dim)]
    words = [sum(b for b, x in zip(bits, g) if x) for g in code]  # g @ w
    lines = [" ".join(f"n{i}," for i in range(dim)) + " = num", "den2 = den + den"]
    for i in range(dim):
        lines += [f"k{i} = (den - n{i}) // den2", f"d{i} = n{i} + k{i} * den2",
                  f"a{i} = den - d{i} - d{i} if d{i} > 0 else den + d{i} + d{i}"]
    lines += [f"s{k} = " + (" + ".join(f"a{i}" for i, x in enumerate(g) if x) or "0")
              for k, g in enumerate(code)]
    lines += ["best = s0", f"g = {words[0]}", "tie = 0"]
    for k, word in enumerate(words[1:], 1):
        lines += [f"if s{k} < best:", f"    best = s{k}", f"    g = {word}",
                  f"elif s{k} == best:", "    tie = 1"]
    low = " + ".join(f"(d{i} <= 0) * {b}" for i, b in enumerate(bits))  # (v1 < v0) @ w
    lines += ["if tie:", f"    t = {low}"]
    for k, word in enumerate(words):
        lines += [f"    if s{k} == best and {word} ^ t < g ^ t:", f"        g = {word}"]
    out = ", ".join(f"((1 if d{i} > 0 else -1) if g & {b} else 0) - k{i} - k{i}"
                    for i, b in enumerate(bits))
    body = "".join(f"    {line}\n" for line in lines)
    return _compiled("nearest2", f"def nearest2(num, den):\n{body}    return ({out},)\n")


def nearest(ring: Ring, x) -> AlgElem:
    """The ring element nearest to x, the least by coords on a tie.

    x may be an AlgElem or a coordinate sequence; floats are taken at
    their exact binary value.  Ties follow _decode2: each doubled
    coordinate rounds to its nearest even value v0 and odd value v1,
    halves down, and of the nearest cosets g the least rank (g @ w) XOR
    ((v1 < v0) @ w), bit weights w_i = 2^(dim-1-i), wins.
    """
    if not isinstance(x, AlgElem):
        x = AlgElem(ring.dim, x)
    if x.dim != ring.dim:
        raise ValueError("coordinate count does not match ring dimension")
    return _elem(ring.dim, _nearest2(ring)([n + n for n in x.num], x.den))


# -- Euclidean algorithms --------------------------------------------------


@dataclass(frozen=True)
class EuclTrace:
    """Record of a sided Euclidean run.

    Right (on inputs a, c):   a = q1 c - r1, c = q2 r1 - r2, ...,
                              r_{n-1} = q_{n+1} r_n.
    Left (on inputs d, c):    d = c q1 - r1, c = r1 q2 - r2, ...,
                              r_{n-1} = r_n q_{n+1}.
    """

    side: str
    ring: Ring
    inputs: tuple[AlgElem, AlgElem]
    quotients: tuple[AlgElem, ...]
    remainders: tuple[AlgElem, ...]

    def replay_ok(self) -> bool:
        """Exactly re-substitute the division chain on doubled coordinates
        and check that the norms |c|^2 > |r1|^2 > |r2|^2 > ... > 0
        strictly decrease, as integer sums of squares.  Each product runs
        through _halving_kernel; a trace with an element off the
        half-integer lattice, a product that leaves it, or an element of
        another dimension does not replay."""
        dim = self.ring.dim
        if len(self.quotients) != len(self.remainders) + 1 or self.inputs[0].dim != dim:
            return False  # the kernel checks the length of every other element
        try:
            seq = [x.coords2 for x in (*self.inputs, *self.remainders)]
            qs = [q.coords2 for q in self.quotients]
            seq.append((0,) * dim)
            halving = _halving_kernel(dim)
            right = self.side == "right"
            for q, prev, cur, nxt in zip(qs, seq, seq[1:], seq[2:]):
                # prev = q cur - nxt (right) or cur q - nxt (left)
                prod = halving(q, cur) if right else halving(cur, q)
                if prod != list(map(operator.add, prev, nxt)):
                    return False
        except ValueError:  # coords2 of a non-half-integral element, or a length
            return False
        norms = [sum(map(operator.mul, x, x)) for x in seq[1:-1]]
        return norms[-1] > 0 and all(map(operator.gt, norms, norms[1:]))

    @property
    def last_divisor(self) -> AlgElem:
        """The last nonzero remainder (or c itself when division is exact)."""
        return self.remainders[-1] if self.remainders else self.inputs[1]


def _unit_orbit_min(ring: Ring, *blocks: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic least of the rows [e b1 | e b2 | ...] over
    the units e of the ring; each block holds (M, dim) doubled
    coordinates.  For an associative ring this is the least member of the
    orbit of the pair rows under (c, d) -> (e c, e d)."""
    best = None
    for e in units(ring):
        e2 = np.broadcast_to(np.array(e.coords2, dtype=blocks[0].dtype),
                             blocks[0].shape)
        cand = np.concatenate([_mult2(e2, b) for b in blocks], axis=1)
        if best is None:
            best = cand
            continue
        # compare at the first difference
        diff = cand - best
        first = (diff != 0).argmax(axis=1)
        take = diff[np.arange(len(diff)), first] < 0
        best[take] = cand[take]
    return best


def _class_keys(ring: Ring, pts2: np.ndarray) -> np.ndarray:
    """One exact integer key row per row c2 = 2c of pts2: the sorted
    minimal vectors c^-bar e (e a unit) of the lattice c^-bar O, each
    packed into one integer, so two rows share a key iff they span the
    same lattice (c = 0: the zero row).  The digits of 4 c^-bar e lie
    within h = isqrt(4 |c2|^2), packed by _cbar_packing in base
    lim = 2h + 1; past the float bound the keys raise OverflowError."""
    dim = ring.dim
    e2 = enumerate_ball(ring, 1)[1:]  # the doubled units
    n4 = int((pts2 * pts2).sum(axis=1).max(initial=0))
    lim = 2 * math.isqrt(4 * n4) + 1
    # t[i, e] packs conj(e_i) (2e), whose entries are at most 2, so
    # |t| <= 2 sum(lim^k)
    if int(np.abs(pts2).sum(axis=1).max(initial=0)) * 2 * sum(
            lim ** k for k in range(dim)) >= 2 ** 53:
        raise OverflowError("class keys would exceed 2^53; the float matmul "
                            "would round them")
    t = _cbar_packing(dim, lim) @ e2.T  # [i, e]
    keys = (pts2 @ t.astype(float)).astype(np.int64)
    keys.sort(axis=1)
    return keys


@lru_cache(maxsize=32)
def _lattice_classes(ring: Ring, max_norm: int) -> tuple[np.ndarray, np.ndarray]:
    """The partition c ~ c' iff c^-bar O = c'^-bar O of enumerate_ball(ring,
    max_norm), read only: the ball index of the first member of each
    class, in increasing order (0 first, the class {0}), and the class sizes.

    A series row of c, its per-shell d-sums and its left-coprime mask,
    depends only on this class.  Write cu + d = c (u + x) with x = c^-1 d,
    which runs over the lattice c^-1 O = c^-bar O / |c|^2 as d runs over
    O; then |cu + d|^2 = |c|^2 |u + x|^2 and |d|^2 = |c|^2 |x|^2.  The
    left Euclid chain on (d, c) depends on the same data: with t = c^-1 p,
    each step maps t to t' = (q - t)^-1, q = nearest(t), because
    (c y)^-1 c = y^-1 in an alternative algebra, and its remainder norms
    are |c|^2 times functions of x, so _decode2 sees the same (num, den)
    on (c, d) and on (c', d') for c' in the class of c, d' = c'(c^-1 d).
    So the members' rows equal the first member's under d <-> d'; both
    facts rest on the alternative law c (c^-bar x) = |c|^2 x (Feingold,
    Kleinschmidt and Nicolai, arXiv:0805.3018).  This is the one quotient
    of the ball: the series rows (autoforms._ball_data) and the pair
    classes (_pair_classes) both take c over the first members.

    For Z and the Hurwitz ring the classes are the unit orbits {e c}; for
    the octavians they hold 1, 16 or 240 points at max_norm 2 (137
    classes against 1,201 orbits {c, -c}).
    """
    keys = _class_keys(ring, enumerate_ball(ring, max_norm))
    # each row is labelled by the first row with the same bytes: a dict of
    # the rows' bytes is exact, and took 7.5 ms against 16.5 ms for
    # np.unique on void rows at octavian max_norm 2
    first = {}
    label = [first.setdefault(row, i) for i, row in enumerate(map(bytes, keys))]
    return tuple(map(_readonly, np.unique(np.array(label, dtype=np.int64), return_counts=True)))


def _exact_rows(*rows) -> list[np.ndarray]:
    """The row arrays as int64 where no Euclid intermediate can overflow
    it, else as Python-int object arrays.  It serves batches only: the
    _euclid_rows of left_content and hyperweyl._canonical_rows, and the
    ball scan of common_right_divisors; the chain of one pair runs on
    Python ints (_euclid).

    With m the largest |entry|, every row has |x2| <= sqrt(dim) m, and
    norms never grow along a chain (nor along its replay in
    hyperweyl._canonical_rows, which keeps the remainder norms).  So:
    - every _mult4 partial sum of two rows is at most |x2| |y2| <= dim m^2
      (Cauchy-Schwarz: output k pairs each x_i with one y_j), and so is
      every norm, den = |c2|^2 among them;
    - num = 4 (x2 y2 >> 1) has |num| <= 2 dim m^2, so den - num,
      k * den2 (within |num| + den of 0), den2 and the other _decode2
      terms stay within |num| + 2 den <= 4 dim m^2;
    - the ranking matmul (den - 2 |d0|) @ g^T stays within dim den <=
      dim^2 m^2;
    - quotients, remainders and their products stay within
      |q2| |c2| <= 2 |p2| + sqrt(2) |c2| <= 4 sqrt(dim) m (the covering
      radius is at most sqrt(1/2)).
    The check (4 dim + dim^2) m^2 < 2^63 therefore keeps every
    intermediate inside int64.  The rows are returned without a copy
    where they already have the dtype; no Euclid routine writes into
    them.
    """
    rows = [np.asarray(r) for r in rows]
    dim = rows[0].shape[1]
    m = max((int(np.abs(r).max()) for r in rows if r.size), default=0)
    dtype = np.int64 if (4 * dim + dim * dim) * m * m < 2 ** 63 else object
    return [r.astype(dtype, copy=False) for r in rows]


@lru_cache(maxsize=None)
def _conj_sign(dim: int) -> np.ndarray:
    """(1, -1, ..., -1): the doubled coordinates of conj(x) are x2 times
    this."""
    return _readonly(np.array([1] + [-1] * (dim - 1)))


def _euclid_rows(ring: Ring, first2, c2, side: str, record: bool = False):
    """Sided Euclid with nearest quotients on each row pair (first, c).

    This kernel serves batches only: left_content, which builds the
    series masks, and hyperweyl._canonical_rows.  The chain of one pair
    runs on Python ints (_euclid_chain), and each is the other's test
    oracle.

    Inputs are (M, dim) doubled coordinates.  Returns (content, chain):
    content[i] is 4 |last nonzero remainder|^2 of row i (4 |first|^2 when
    c = 0, so 4 means coprime).  With record, chain lists one
    (rows, q2, r2) per step: the indices of the rows still running (those
    with c != 0 at the first step) and their quotients and remainders;
    without, chain is None.  The squared covering radii of Z,
    D4 and E8 at unit minimal norm (1/4, 1/2, 1/2) are below 1, so each
    nearest quotient strictly lowers the norm; a step that does not
    raises ArithmeticError.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    p, c = _exact_rows(first2, c2)
    conj_sign = _conj_sign(ring.dim)
    cn4 = (c * c).sum(axis=1)
    content = (p * p).sum(axis=1)
    chain = [] if record else None
    idx = np.flatnonzero(cn4 > 0)
    p, c, cn4 = p[idx], c[idx], cn4[idx]
    while len(idx):
        cbar = c * conj_sign
        # doubled target: right p c^-1 = p conj(c) / N(c), left c^-1 p
        num = _mult2(p, cbar) if side == "right" else _mult2(cbar, p)
        num <<= 2
        q = _decode2(ring, num, cn4)
        r = _mult2(q, c) if side == "right" else _mult2(c, q)
        r -= p
        rn4 = (r * r).sum(axis=1)
        if (rn4 >= cn4).any():
            raise ArithmeticError(f"Euclid step did not lower the norm in {ring} ({side})")
        if chain is not None:
            chain.append((idx, q, r))
        done = rn4 == 0
        if done.any():  # drop the finished rows
            content[idx[done]] = cn4[done]
            more = ~done
            idx, c, r, rn4 = idx[more], c[more], r[more], rn4[more]
        p, c, cn4 = c, r, rn4
    return content, chain


def _check_members(ring: Ring, *xs: AlgElem) -> None:
    for x in xs:
        if not is_member(ring, x):
            raise ValueError(f"{x} is not a member of {ring}")


def _euclid_chain(ring: Ring, p: Sequence[int], c: Sequence[int], side: str) -> list:
    """The steps (q2, r2) of the sided Euclid chain on the doubled
    coordinates (p, c) of ring members, c != 0: one row of
    _euclid_rows(record=True) on Python ints, with the same checks and
    errors.  Each step decodes q from (raw >> 1, |c|^2), raw = p conj(c)
    (right) or conj(c) p (left): _euclid_rows decodes the same point
    from (4 (raw >> 1), 4 |c|^2), since a member's norm is an integer
    and the decoder's rule is unchanged by a common factor.  Then
    r = q c - p (right) or c q - p (left).  Both products run through
    _halving_kernel, and the odd entry it reports raises here."""
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    right = side == "right"
    halving, decode = _halving_kernel(ring.dim), _nearest2(ring)
    cn4 = sum(map(operator.mul, c, c))
    steps = []
    while cn4:
        cbar = [-v for v in c]
        cbar[0] = c[0]
        num = halving(p, cbar) if right else halving(cbar, p)
        if num is None:
            raise ArithmeticError("product left the half-integer lattice")
        q = decode(num, cn4 >> 2)
        qc = halving(q, c) if right else halving(c, q)
        if qc is None:
            raise ArithmeticError("product left the half-integer lattice")
        r = tuple(map(operator.sub, qc, p))
        rn4 = sum(map(operator.mul, r, r))
        if rn4 >= cn4:
            raise ArithmeticError(f"Euclid step did not lower the norm in {ring} ({side})")
        steps.append((q, r))
        p, c, cn4 = c, r, rn4
    return steps


@lru_cache(maxsize=32)
def _euclid(ring: Ring, first: AlgElem, c: AlgElem, side: str) -> EuclTrace:
    """The one Euclid chain on (first, c): the word builders read it right
    after the coprimality test or the trace, so a few entries suffice.
    Errors are not cached, so bad inputs raise on every call.

    The chain runs on Python ints (_euclid_chain): a pair takes a few
    steps of a few dim-sized products, and on (1, dim) numpy rows of the
    batch kernel _euclid_rows that cost is almost all call overhead.
    """
    if c.is_zero():
        raise ZeroDivisionError("Euclidean algorithm requires a nonzero divisor")
    _check_members(ring, first, c)
    steps = _euclid_chain(ring, first.coords2, c.coords2, side)
    dim = ring.dim
    qs = tuple([_from2(dim, q) for q, _ in steps])
    rs = tuple([_from2(dim, r) for _, r in steps[:-1]])
    return EuclTrace(side, ring, (first, c), qs, rs)


def right_euclid(ring: Ring, a: AlgElem, c: AlgElem) -> EuclTrace:
    """Right Euclidean algorithm a = q1 c - r1, ... (strictly decreasing norms).

    One chain per (ring, a, c, side) is computed and shared: is_right_coprime
    and build_w_ac on the same pair read the same immutable trace.
    """
    return _euclid(ring, a, c, "right")


def left_euclid(ring: Ring, d: AlgElem, c: AlgElem) -> EuclTrace:
    """Left Euclidean algorithm d = c q1 - r1, ... (strictly decreasing norms).

    One chain per (ring, d, c, side) is computed and shared: is_left_coprime
    and build_w_tilde_cd on the same pair read the same immutable trace.
    """
    return _euclid(ring, d, c, "left")


def _coprime(ring: Ring, x: AlgElem, y: AlgElem, side: str) -> bool:
    if not y.is_zero():  # a unit last divisor
        return _is_unit_norm(_euclid(ring, x, y, side).last_divisor)
    _check_members(ring, x, y)
    if x.is_zero():
        raise ValueError("coprimality is undefined for (0, 0)")
    return _is_unit_norm(x)


def is_right_coprime(ring: Ring, a: AlgElem, c: AlgElem) -> bool:
    """True iff the right Euclidean run on (a, c) ends in a unit (for c = 0:
    iff a is a unit).  Reads the shared trace of right_euclid(ring, a, c)."""
    return _coprime(ring, a, c, "right")


def is_left_coprime(ring: Ring, d: AlgElem, c: AlgElem) -> bool:
    """True iff the left Euclidean run on (d, c) ends in a unit (for c = 0:
    iff d is a unit).  Reads the shared trace of left_euclid(ring, d, c)."""
    return _coprime(ring, d, c, "left")


def left_content(ring: Ring, c2, d2) -> np.ndarray:
    """4 |last nonzero remainder|^2 of the left Euclid run on each pair
    (d, c) of (M, dim) doubled coordinates (4 |d|^2 where c = 0); 4 means
    left coprime."""
    return _euclid_rows(ring, d2, c2, "left")[0]


def common_right_divisors(ring: Ring, a: AlgElem, c: AlgElem, max_norm: int = 4) -> list[AlgElem]:
    """Diagnostic scan for common right divisors g (|g|^2 > 1) of a and c.

    Checks a = x g, c = y g with ring members x, y; exhaustive over the
    bounded-norm ball.  Never used to decide coprimality (for octavians
    the notions genuinely differ).

    x = a conj(g) / |g|^2, so on doubled coordinates g2 = 2 g the test is
    that 4 * 2 (a conj(g)) is divisible by |g2|^2 and the quotient is on
    the ring lattice, for the whole ball at once.
    """
    _check_members(ring, a, c)
    g2 = enumerate_ball(ring, max_norm)
    n4 = (g2 * g2).sum(axis=1)
    g2, n4 = g2[n4 > 4], n4[n4 > 4]
    gbar2, a2, c2 = _exact_rows(g2 * _conj_sign(ring.dim),
                                [a.coords2], [c.coords2])
    ok = np.ones(len(g2), dtype=bool)
    for x2 in (a2, c2):
        num = 4 * _mult2(np.broadcast_to(x2, gbar2.shape), gbar2)
        div = (num % n4[:, None] == 0).all(axis=1)
        q2 = num // n4[:, None]
        par = (q2 % 2).astype(np.int64)
        ok &= div & (par[:, None, :] == _coset_matrix(ring)[None]).all(axis=2).any(axis=1)
    return sorted((_elem(ring.dim, g) for g in g2[ok]), key=lambda u: u.coords)


# -- lattice enumeration and shell counts ----------------------------------


@lru_cache(maxsize=None, typed=True)
def enumerate_ball(ring: Ring, max_norm: int) -> np.ndarray:
    """Doubled coordinates of all ring elements with |x|^2 <= max_norm.

    Returns an int array sorted shell-major (then lexicographically); the
    zero element is included.  The cache is typed, so a float bound never
    meets the entry of an equal int and always raises ValueError.
    """
    _require_int("max_norm", max_norm)
    if max_norm < 0:
        raise ValueError("max_norm must be nonnegative")
    dim = ring.dim
    bound = 4 * max_norm  # doubled-coordinate norm bound
    rmax = int(np.floor(np.sqrt(bound)))
    blocks = []
    for cw in _cosets(ring):
        axes = []
        for p in cw:
            # the values of parity p in [-rmax, rmax]
            axes.append(np.arange(-rmax + (rmax + p) % 2, rmax + 1, 2, dtype=np.int64))
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        n4 = (grid * grid).sum(axis=1)
        blocks.append(grid[n4 <= bound])
    pts = np.concatenate(blocks, axis=0)
    n4 = (pts * pts).sum(axis=1)
    order = np.lexsort(tuple(pts[:, k] for k in reversed(range(pts.shape[1]))) + (n4,))
    return _readonly(pts[order])


# Pairs per numpy batch of a pair build (Euclid rows, primitivity flags),
# and the floor of _merge_distinct.  A batch's temporaries set the peak
# memory of a build, and the allocator keeps them: the RSS stayed 11 MB
# higher after the octavian radius 2 key table was built in 64k chunks,
# 5 MB in 16k.  No size from 4k to 64k pairs was measurably faster: the
# Hurwitz radius 9 coprime mask (37,480 pairs), then one Euclid row per
# pair, took 42-80 ms warm at each, with a traced peak of 15.1 MB in one
# 64k batch and 6.9 MB in 16k batches.
_EUCLID_BATCH = 1 << 14


def ball_elements(ring: Ring, max_norm: int) -> list[AlgElem]:
    """Ring elements with 0 < |x|^2 <= max_norm."""
    return [_elem(ring.dim, row) for row in enumerate_ball(ring, max_norm)[1:]]


def shell_counts(ring: Ring, n_max: int) -> list[int]:
    """sigma(k) = #{a in ring : |a|^2 = k} for k = 1..n_max by the sieve
    ring.shells: Z 2 per square, Hurwitz 24 times the sum of the odd
    divisors of k, octavians 240 times the sum of the cubed divisors."""
    _require_int("n_max", n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    factor, power, step = ring.shells
    counts = np.zeros(n_max + 1, dtype=np.int64)
    if step:
        for d in range(1, n_max + 1, step):
            counts[d::d] += factor * d ** power
    else:
        counts[np.arange(1, math.isqrt(n_max) + 1) ** 2] = factor
    return [int(c) for c in counts[1:]]


# -- distinct keys of lattice pairs ------------------------------------------


def _distinct(key: np.ndarray, mult: np.ndarray, item: np.ndarray):
    """The distinct values of key in increasing order, each with the sum
    of its multiplicities and one of its items (any one: every pair of a
    key of _pair_classes has its term, coprimality and coset class)."""
    order = key.argsort()
    key = key[order]
    head = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    return key[head], np.add.reduceat(mult[order], head), item[order[head]]


def _merge_distinct(chunks):
    """_distinct of the concatenation of a stream of one or more (key,
    mult, item) chunks, without holding the whole stream: the chunks wait
    until they hold as many entries as the running table, and at least
    _EUCLID_BATCH, and then one _distinct merges them in.  So the build
    holds about twice the table, and the sorts take in at most three times
    the entries of the stream."""
    parts, size, floor = [], 0, _EUCLID_BATCH
    for chunk in chunks:
        parts.append(chunk)
        size += len(chunk[0])
        if size >= floor:
            parts = [_distinct(*map(np.concatenate, zip(*parts)))]
            size, floor = 0, max(len(parts[0][0]), _EUCLID_BATCH)
    return _distinct(*map(np.concatenate, zip(*parts)))


def _cbar_packing(dim: int, lim: int) -> np.ndarray:
    """The (dim, dim) integer matrix P with (c2 @ P) @ x2 = sum_k lim^k
    (4 c^-bar x)_k for doubled coordinates c2 = 2c and x2 = 2x, one-to-one
    while every |(4 c^-bar x)_k| <= lim // 2.  It is bilinear, so one
    float matmul of the rows c2 @ P with a stack of x2 packs a block; its
    partial sums are integers, so it is exact in any order while they
    stay below 2^53, a bound each caller checks on its own inputs."""
    prod = _structure_float(dim).astype(np.int64)  # [i, j, k]: e_i e_j
    return (prod @ lim ** np.arange(dim)) * _conj_sign(dim)[:, None]


def _key_range(ring: Ring, radius: int) -> tuple[int, int]:
    """(lim, base) of the keys of _pair_classes(ring, radius): the digits
    of 2 c^-bar d in balanced base lim = 4 radius + 1, below base =
    lim^dim.  The packing matmul (c2 @ _cbar_packing(dim, lim)) @ d2 has
    partial sums up to |c2| |d2| S <= 4 radius S, S = sum_k lim^k (the
    packing is sum_k lim^k times a signed permutation), to stay below
    2^53, and the keys reach base (radius + 1)^2, to stay below 2^62.  It
    raises OverflowError past either, before any ball is built: from
    octavian radius 24 and Hurwitz radius 512 on (2^62; 2^53 would bite
    at 25 and 2,436)."""
    lim = 4 * radius + 1
    base = lim ** ring.dim
    if 4 * radius * (base - 1) // (lim - 1) >= 2 ** 53 or base * (radius + 1) ** 2 >= 2 ** 62:
        raise OverflowError(f"pair keys of {ring} at radius {radius} would exceed "
                            "2^53 or 2^62")
    return lim, base


@lru_cache(maxsize=4)
def _pair_classes(ring: Ring, radius: int):
    """The pairs (c, d) != (0, 0) with max(|c|^2, |d|^2) <= radius up to
    their key (|c|^2, c^-bar d, |d|^2), read only: the distinct keys in
    increasing order, the number of pairs of each and one stored pair of
    each.  The key labels the coset of a left-coprime row (c, d) in
    Gamma_infinity \\ Gamma, as the null vector [[|c|^2, c^-bar d],
    [d^-bar c, |d|^2]] (Feingold, Kleinschmidt and Nicolai,
    arXiv:0805.3018), and decides the coprimality (_coprime_classes) and
    the series term (autoforms._key_terms): for c != 0 the Euclid chain
    of (d, c) reads only c^-1 d = c^-bar d / |c|^2 (_lattice_classes).

    c runs over the first member of each lattice class, with the class
    size (a member c' has the pairs (c', c'(c^-1 d)), with the keys of
    (c, d)), and d over one of each pair +-d: (c, -d) has the key
    (|c|^2, -c^-bar d, |d|^2), so the table is merged with its mirror.  A
    key is one integer, (|c|^2 (radius + 1) + |d|^2) base plus the digits
    of 2 c^-bar d (_key_range), merged in chunks of _EUCLID_BATCH pairs
    as they arrive.  The stored pair of the ball points (c, d) = (i, j)
    is i m + j, and -1 - (i m + j) for (c, -d).  Octavian radius 2 has
    22,084 keys for 326,536 class-row pairs.
    """
    lim, base = _key_range(ring, radius)
    pts2 = enumerate_ball(ring, radius)
    reps, weight = _lattice_classes(ring, radius)
    m = len(pts2)
    shell = (pts2 * pts2).sum(axis=1) >> 2
    ck = base * (radius + 1) * shell[reps]
    # the digits of 4 c^-bar d of the pair (c, d) are packed[c] . d2
    packed = (pts2[reps] @ _cbar_packing(ring.dim, lim)).astype(float)
    # one of each pair +-d, d != 0: the first nonzero coordinate positive
    half = np.flatnonzero(pts2[np.arange(m), (pts2 != 0).argmax(axis=1)] > 0)
    d2, dk = pts2[half].T.astype(float), base * shell[half]
    chunk = max(1, _EUCLID_BATCH // len(half))

    def chunks():
        for lo in range(0, len(reps), chunk):
            r = slice(lo, lo + chunk)
            key = ((packed[r] @ d2).astype(np.int64) >> 1) + dk + ck[r, None]
            yield key.ravel(), np.repeat(weight[r], len(half)), (reps[r, None] * m + half).ravel()

    key, mult, pair = _merge_distinct(chunks())
    # the pairs (c, -d) have the keys (K, -y), and the pairs (c, 0), c !=
    # 0, the keys (K, 0); (0, 0) has none
    top = (key + (base - 1) // 2) // base
    key, mult, pair = _distinct(np.concatenate([key, 2 * base * top - key, ck[1:]]),
                                np.concatenate([mult, mult, weight[1:]]),
                                np.concatenate([pair, -1 - pair, reps[1:] * m]))
    return tuple(map(_readonly, (key, mult, pair)))


def _stored_pairs(ring: Ring, radius: int, pair: np.ndarray):
    """The doubled coordinates (c2, d2) of stored pairs of
    _pair_classes(ring, radius), in Euclid batches of _EUCLID_BATCH."""
    pts2 = enumerate_ball(ring, radius)
    for lo in range(0, len(pair), _EUCLID_BATCH):
        p = pair[lo:lo + _EUCLID_BATCH]
        c, d = np.divmod(np.where(p < 0, -1 - p, p), len(pts2))
        yield pts2[c], np.where(p < 0, -1, 1)[:, None] * pts2[d]


def _key_split(ring: Ring, radius: int, key: np.ndarray):
    """The fields of keys of _pair_classes(ring, radius): k = |c|^2, l =
    |d|^2 and the digits of 2 c^-bar d, still packed (_key_x2)."""
    _, base = _key_range(ring, radius)
    top = (key + (base - 1) // 2) // base
    k, l = np.divmod(top, radius + 1)
    return k, l, key - base * top + (base - 1) // 2


def _key_x2(ring: Ring, radius: int, packed: np.ndarray) -> np.ndarray:
    """The doubled coordinates 2 c^-bar d of packed digits of _key_split,
    one row each."""
    lim = 4 * radius + 1
    x2 = np.empty((len(packed), ring.dim), dtype=np.int64)
    for i in range(ring.dim):
        packed, x2[:, i] = np.divmod(packed, lim)
    return x2 - 2 * radius


def _primitive_rows(ring: Ring, k: np.ndarray, l: np.ndarray, x2_of) -> np.ndarray:
    """Left coprimality of pairs (c, d) by primitivity: the null vector
    [[k, x], [x^-bar, l]] with k = |c|^2, l = |d|^2 and x = c^-bar d is
    primitive, gcd(k, l, content x) = 1, where content x is the gcd of
    the integer coordinates of x in ring.basis2 (Feingold, Kleinschmidt
    and Nicolai, arXiv:0805.3018, label the cosets by these null vectors).
    It agrees with left_content == 4, one Euclid run per pair, on every
    key of Z 50, Hurwitz 9 and octavian 2 and on the series masks up to
    Hurwitz 16 (the tests).  x2_of(rows) gives 2x on the rows with
    gcd(k, l) != 1, the only ones that need it.

    The coordinates of x are 2x adj / det for the integer adjugate adj of
    basis2 (basis2 adj = det I, checked exactly), so the content is the
    gcd of the row 2x adj over |det|, and det divides it exactly when x
    lies on the lattice, which is checked too."""
    basis = np.array(ring.basis2, dtype=np.int64)
    det = round(float(np.linalg.det(basis)))
    adj = np.rint(np.linalg.inv(basis) * det)
    if not np.array_equal(basis @ adj, det * np.eye(ring.dim)):
        raise ArithmeticError(f"no integer adjugate of the basis of {ring}")
    g = np.gcd(k, l)
    live = np.flatnonzero(g != 1)
    # a float64 matmul (BLAS), exact: the entries stay far below 2^53
    y = np.gcd.reduce((x2_of(live) @ adj).astype(np.int64), axis=1)
    if (y % det).any():
        raise ArithmeticError(f"a product c^-bar d left the lattice of {ring}")
    g[live] = np.gcd(g[live], y // abs(det))
    return g == 1


@lru_cache(maxsize=4)
def _coprime_classes(ring: Ring, radius: int) -> np.ndarray:
    """Which keys of _pair_classes(ring, radius) are left coprime, read
    only: _primitive_rows on the fields of each key, in blocks of
    _EUCLID_BATCH keys."""
    key = _pair_classes(ring, radius)[0]
    out = []
    for lo in range(0, len(key), _EUCLID_BATCH):
        k, l, packed = _key_split(ring, radius, key[lo:lo + _EUCLID_BATCH])
        out.append(_primitive_rows(ring, k, l, lambda rows: _key_x2(ring, radius, packed[rows])))
    return _readonly(np.concatenate(out))


# -- Hurwitz commutator ideal ----------------------------------------------


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix (nonzero rows)."""
    mat = [list(r) for r in rows if any(r)]
    ncols = len(rows[0])
    out = []
    col = 0
    while mat and col < ncols:
        pivot_rows = [r for r in mat if r[col] != 0]
        if not pivot_rows:
            col += 1
            continue
        while True:
            pivot_rows.sort(key=lambda r: abs(r[col]))
            p = pivot_rows[0]
            done = True
            for r in pivot_rows[1:]:
                f = r[col] // p[col]
                for k in range(ncols):
                    r[k] -= f * p[k]
                if r[col] != 0:
                    done = False
            pivot_rows = [p] + [r for r in pivot_rows[1:] if r[col] != 0]
            if done and len(pivot_rows) == 1:
                break
        if p[col] < 0:
            p = [-x for x in p]
        out.append(p)
        mat = [r for r in mat if r is not p and any(r)]
        for r in mat:
            if r[col] != 0:
                f = r[col] // p[col]
                for k in range(ncols):
                    r[k] -= f * p[k]
        mat = [r for r in mat if any(r)]
        col += 1
    return out


@lru_cache(maxsize=None)
def commutator_ideal_basis() -> tuple[AlgElem, ...]:
    """Lattice basis of the two-sided Hurwitz commutator ideal H[H,H]H."""
    gens = [one(4), basis_unit(4, 1), basis_unit(4, 2), D4_SIMPLE_ROOTS[1]]
    rows = []
    for h1, h2, h3, h4 in itertools.product(gens, repeat=4):
        v = cd_multiply(cd_multiply(h1, commutator(h2, h3)), h4)
        rows.append(list(v.coords2))
    basis_rows = _hnf_rows(rows)
    if len(basis_rows) != 4:
        raise RuntimeError("commutator ideal is not full rank")
    return tuple(AlgElem.from_coords2(4, r) for r in basis_rows)


def _pivot_product(hnf_rows) -> int:
    """Covolume (in doubled coordinates) of a full-rank lattice from its
    Hermite-normal-form rows: the product of their pivots."""
    return math.prod(next(v for v in r if v) for r in hnf_rows)


def commutator_ideal_index() -> int:
    """Index of the commutator ideal as a sublattice of the Hurwitz ring."""
    cbasis = [b.coords2 for b in commutator_ideal_basis()]
    hbasis = _hnf_rows(HURWITZ.basis2)
    index, rem = divmod(_pivot_product(cbasis), _pivot_product(hbasis))
    if rem:
        raise ArithmeticError("commutator ideal is not a sublattice of the Hurwitz ring")
    return index


def is_in_commutator_ideal(x: AlgElem) -> bool:
    """Exact membership of a Hurwitz element in the commutator ideal:
    reduce x against the Hermite-normal-form basis rows."""
    if x.dim != 4:
        raise ValueError("commutator ideal is defined for Hurwitz quaternions only")
    x2 = list(x.coords2)
    for b in commutator_ideal_basis():
        row = b.coords2
        col = next(i for i, v in enumerate(row) if v)
        f, rem = divmod(x2[col], row[col])
        if rem:
            return False
        x2 = [u - f * v for u, v in zip(x2, row)]
    return not any(x2)


# -- misc ------------------------------------------------------------------


def random_element(ring: Ring, rng, max_coord2: int = 6) -> AlgElem:
    """Uniform random ring element with doubled coordinates in a box: a
    uniform glue vector plus even offsets (Z: the wider box of even values
    up to 2 max_coord2)."""
    if ring is Z:  # a pinned stream: test_random_element_matches_per_ring_draw
        return AlgElem.from_coords2(1, [2 * rng.randint(-max_coord2, max_coord2)])
    code = _cosets(ring)
    cw = code[rng.randrange(len(code))]
    c2 = [2 * rng.randint(-max_coord2 // 2, max_coord2 // 2) + p for p in cw]
    return AlgElem.from_coords2(ring.dim, c2)
