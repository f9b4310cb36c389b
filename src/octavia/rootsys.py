"""Finite root systems D4, E7, E8 inside the division algebras.

Roots are unit lattice elements; reflections are the quaternion/octonion
sandwich maps x -> -a conj(x) a.  The module also builds the octavian
automorphism group G2(2) = Aut(O) as H u H phi, where H is the group of
the Brandt conjugations (the index-2 derived subgroup) and phi one outer
automorphism; the even Weyl groups W+(D4), W+(E7) and W+(E8) with their
normal forms, together with the nested conjugation automorphism
criterion and its unit corollary.  H and the orders of W+(D4), W+(E7)
and W+(E8) come from stabilizer chains on the units of the ring.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .algebra import (
    AlgElem,
    _is_unit_norm,
    _mult2,
    _mult4,
    _readonly,
    basis_unit,
    cd_multiply,
    conj,
    norm_sq,
    one,
    structure_table,
)
from .rings import (
    D4_SIMPLE_ROOTS,
    HURWITZ,
    OCTAVIAN,
    is_unit,
    octavian_unit_classes,
    units,
)

__all__ = [
    "LinMap",
    "RootBasis",
    "all_roots",
    "brandt_conjugation",
    "cartan_matrix",
    "d4_even_count",
    "d4_even_element",
    "e7_element",
    "e7_normal_form",
    "e8_decompose",
    "e8_element",
    "factor_into_imaginaries",
    "g2_key_set",
    "generate_G2_2",
    "generate_w_e7",
    "imaginary_units",
    "is_automorphism_bimult",
    "is_automorphism_map",
    "nested_conjugation_map",
    "reflect",
    "right_mult_map",
    "root_basis",
    "s_relation_composite",
    "sandwich_map",
    "theta_marks",
    "unit_corollary_check",
    "w_e8_order",
]


# -- exact linear maps -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class LinMap:
    """Exact real-linear map of the algebra, rows in doubled coordinates.

    rows2[i] holds the doubled coordinates of the image of basis unit e_i,
    so all Weyl/automorphism elements are integer matrices.
    """

    dim: int
    rows2: tuple

    @classmethod
    def from_callable(cls, dim, f):
        rows = []
        for i in range(dim):
            img = f(basis_unit(dim, i))
            rows.append(img.coords2)
        return cls(dim, tuple(rows))

    @classmethod
    def identity(cls, dim):
        return cls(dim, tuple(tuple(2 * int(i == j) for j in range(dim)) for i in range(dim)))

    def matrix2(self) -> np.ndarray:
        return np.array(self.rows2, dtype=np.int64)

    def __mul__(self, other: "LinMap") -> "LinMap":
        """Composition self o other (other acts first)."""
        prod = _product2(other.matrix2(), self.matrix2())
        return LinMap(self.dim, tuple(map(tuple, prod.tolist())))

    def key(self) -> bytes:
        """int8 bytes of matrix2(), read off rows2: each entry v as the
        byte v + 128, which bytes() rejects outside int8 (an entry there
        would wrap onto the key of another map), then translated to v's
        two's complement byte."""
        try:
            return bytes([v + 128 for row in self.rows2 for v in row]).translate(_INT8_BYTES)
        except ValueError:
            raise ValueError("a matrix2() entry lies outside the int8 key range") from None

    def is_orthogonal(self) -> bool:
        return _is_orthogonal2(self.matrix2())

    def det(self) -> Fraction:
        """Exact determinant: fraction-free (Bareiss) elimination on the
        integer matrix2(), divided by 2^dim."""
        a = [list(r) for r in self.rows2]
        n, sign, prev = self.dim, 1, 1
        for k in range(n - 1):
            if a[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if a[i][k]), None)
                if piv is None:
                    return Fraction(0)
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return Fraction(sign * a[n - 1][n - 1], 2 ** n)


# byte v + 128 -> the int8 byte of v, for LinMap.key
_INT8_BYTES = bytes((b - 128) & 255 for b in range(256))


def _is_orthogonal2(m2: np.ndarray) -> bool:
    """Whether the doubled-coordinate matrix m2 is orthogonal: m2 m2^T = 4."""
    gram = m2 @ m2.T
    gram.flat[::len(gram) + 1] -= 4
    return not gram.any()


def _product2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b) / 2 for integer doubled-coordinate matrices (stacks
    broadcast)."""
    prod = a @ b
    if (prod & 1).any():
        raise ArithmeticError("product left the half-integer lattice")
    return prod >> 1


def _bimult_rows(a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """The matrix2() of x -> (a x) b for each row pair of the (k, dim)
    doubled-coordinate stacks a2, b2, as one (k, dim, dim) array: two
    batched _mult2 on stacked doubled identities.  ArithmeticError when an
    image leaves the half-integer lattice."""
    k, dim = a2.shape
    ax = _mult2(np.repeat(a2, dim, axis=0), np.tile(2 * np.eye(dim, dtype=np.int64), (k, 1)))
    return _mult2(ax, np.repeat(b2, dim, axis=0)).reshape(k, dim, dim)


def _bimult_map(a: AlgElem, b: AlgElem) -> LinMap:
    """x -> (a x) b; ValueError when an image leaves the half-integer
    lattice."""
    try:
        rows = _bimult_rows(np.array([a.coords2]), np.array([b.coords2]))[0]
    except ArithmeticError:
        raise ValueError(f"x -> ({a} x) {b} leaves the half-integer lattice") from None
    return LinMap(a.dim, tuple(map(tuple, rows.tolist())))


@lru_cache(maxsize=4096)
def sandwich_map(a: AlgElem) -> LinMap:
    """The map x -> a x a (unambiguous by flexibility)."""
    return _bimult_map(a, a)


@lru_cache(maxsize=4096)
def right_mult_map(b: AlgElem) -> LinMap:
    return _bimult_map(one(b.dim), b)


@lru_cache(maxsize=480)
def _unit_matrix2(map_of, u: AlgElem) -> np.ndarray:
    """map_of(u).matrix2(), read-only, for map_of sandwich_map or
    right_mult_map.  The W+(E8) maps read it for unit octavians only,
    after checking them, so it holds at most the 240 units per map kind;
    converting rows2 each time cost more than the product itself."""
    return _readonly(map_of(u).matrix2())


def brandt_conjugation(a: AlgElem) -> LinMap:
    """x -> a x a^{-1} = a x conj(a) for a unit a; an automorphism exactly
    when a is a Brandt unit.  Any other a raises ValueError, because only
    a unit's conjugate is its inverse."""
    if not _is_unit_norm(a):
        raise ValueError(f"{a} is not a unit")
    return _bimult_map(a, conj(a))


def is_automorphism_map(m: LinMap) -> bool:
    """m(e_i e_j) = m(e_i) m(e_j) on all basis pairs: the unhalved
    rows2[i] rows2[j] against 2 sgn[i, j] rows2[idx[i, j]], batched; a
    product off the half-integer lattice is odd and gives False."""
    idx, sgn = structure_table(m.dim)
    r, n = m.matrix2(), m.dim
    lhs = _mult4(np.repeat(r, n, axis=0), np.tile(r, (n, 1)))  # pair (i, j) at n i + j
    return bool(np.array_equal(lhs, 2 * sgn.reshape(-1, 1) * r[idx.reshape(-1)]))


# -- stabilizer chains on the ring units ------------------------------------


# The ring whose units a chain on dim x dim matrices runs on, and their
# name in errors.
_CHAIN_UNITS = {4: (HURWITZ, "Hurwitz units"), 8: (OCTAVIAN, "unit octavians")}


def _unit_codes(x2: np.ndarray) -> np.ndarray:
    """Base-5 integer code of each row of an integer array of doubled
    unit coordinates (entries in [-2, 2]), the first coordinate least
    significant; the code of -x is 5^dim - 1 minus that of x."""
    x2 = np.asarray(x2)
    # Horner in place: on the 96 768 rows of G2(2) 4 times faster than an
    # int64 matmul, and with one int64 temporary, where a float matmul
    # would first cast every row to float64
    code = np.zeros(x2.shape[:-1], dtype=np.int64)
    for k in reversed(range(x2.shape[-1])):
        code *= 5
        code += x2[..., k]
    return code + (5 ** x2.shape[-1] - 1) // 2


@lru_cache(maxsize=None)
def _coded_units(dim: int) -> tuple:
    """The sorted _unit_codes of the units of the ring of _CHAIN_UNITS[dim]
    and their doubled coordinates in that order: point i of a chain is
    unit i."""
    units2 = np.array([u.coords2 for u in units(_CHAIN_UNITS[dim][0])], dtype=np.int64)
    codes = _unit_codes(units2)
    order = np.argsort(codes)
    return _readonly(codes[order]), _readonly(units2[order])


def _unit_perms(mats) -> np.ndarray:
    """Row k maps point i to the unit x_i mats[k] / 2; ValueError unless
    every doubled-coordinate matrix permutes the units."""
    mats = np.asarray(mats, dtype=np.int64)
    dim = mats.shape[-1]
    codes, units2 = _coded_units(dim)
    img = units2 @ mats  # twice the doubled images
    found = _unit_codes(img // 2)
    perms = np.searchsorted(codes, found).clip(max=len(codes) - 1)
    # the codes are exact on [-2, 2], the range of a doubled unit coordinate
    if (np.any(img % 2) or np.abs(img).max() > 4 or np.any(codes[perms] != found)
            or np.any(np.sort(perms, axis=-1) != np.arange(len(codes)))):
        raise ValueError(f"a matrix does not permute the {_CHAIN_UNITS[dim][1]}")
    return perms


def _sift(chain, perms: np.ndarray, start: int = 0) -> tuple:
    """Sift permutation rows through chain[start:] in one batch: their
    residues, and the level where each left the orbit (len(chain) if none
    did).  A row p maps i to p[i], so "p, then q" is q[p]."""
    perms, stop, live = perms.copy(), np.full(len(perms), len(chain)), np.arange(len(perms))
    n = perms.shape[1]
    for depth, (point, _, inv, where) in enumerate(chain[start:], start):
        pos = where[perms[live, point]]
        stop[live[pos < 0]] = depth
        live, pos = live[pos >= 0], pos[pos >= 0]
        perms[live] = inv.ravel()[pos[:, None] * n + perms[live]]  # row, then inv[pos]
    return perms, stop


def _stabilizer_chain(mats) -> tuple:
    """Deterministic Schreier-Sims (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory (2005) 4.4.2) for the group of a stack of
    doubled-coordinate matrices on the units of their ring (_CHAIN_UNITS:
    the 24 Hurwitz units or the 240 unit octavians), which span the algebra.
    Level d is (point, trans, inv, where): trans[k] maps the base point to
    orbit point k, inv[k] is its inverse, where[x] the k of x (-1 off the
    orbit).  Sifting u_x g through its level gives the Schreier generator
    u_x g u_{g(x)}^{-1}; the input sifts as a level above the first.  The
    first residue that is not the identity joins every level it reached,
    and a new level's base point is the first point it moves."""
    perms = _unit_perms(mats)
    ident = np.arange(perms.shape[1])
    gens, chain, depth = [], [], -1
    while True:
        # one batch per generator g: the rows u_x g for every orbit point x
        for rows in ([perms] if depth < 0 else (g[chain[depth][1]] for g in gens[depth])):
            res, stop = _sift(chain, rows, max(depth, 0))
            bad = np.flatnonzero((stop < len(chain)) | np.any(res != ident, axis=1))
            if len(bad):
                break
        else:
            if depth < 0:
                return tuple(chain)
            depth -= 1
            continue
        h, reached = res[bad[0]], int(stop[bad[0]])
        if reached == len(chain):
            gens.append([])
            chain.append((int(np.flatnonzero(h != ident)[0]),))
        for d in range(depth + 1, reached + 1):
            gens[d].append(h)
            point, where, trans = chain[d][0], np.full(len(ident), -1), [ident]
            where[point] = 0
            for u in trans:  # the orbit of point, breadth first
                for g in gens[d]:
                    if where[g[u[point]]] < 0:
                        where[g[u[point]]] = len(trans)
                        trans.append(g[u])
            chain[d] = (point, np.array(trans), np.argsort(trans, axis=1), where)
        depth = reached


def _order(chain) -> int:
    return math.prod(len(trans) for _, trans, _, _ in chain)


# -- root bases ------------------------------------------------------------


@dataclass(frozen=True)
class RootBasis:
    algebra: str
    simple_roots: tuple
    theta: AlgElem


# The doubled simple roots of each finite root system: D4 and E8 are the
# Hurwitz and octavian lattice bases, E7 drops E8's first root.
_SIMPLE2 = MappingProxyType({"d4": HURWITZ.basis2, "e7": OCTAVIAN.basis2[1:],
                             "e8": OCTAVIAN.basis2})


def _simple2(algebra: str) -> np.ndarray:
    try:
        return np.array(_SIMPLE2[algebra.lower()], dtype=np.int64)
    except KeyError:
        raise ValueError(f"unknown root system {algebra.lower()!r}") from None


@lru_cache(maxsize=None)
def root_basis(algebra: str) -> RootBasis:
    """Simple roots and highest root theta.

    In an irreducible simply-laced root system the highest root is the
    only root with <theta, alpha_i^vee> = (A theta)_i >= 0 for every
    simple root alpha_i; it is read off the closure's coefficient rows.
    """
    coef = np.array(list(_root_closure(algebra).values()))
    dominant = np.flatnonzero((coef @ np.array(cartan_matrix(algebra)).T >= 0).all(1))
    if len(dominant) != 1:
        raise RuntimeError(f"{algebra} has {len(dominant)} dominant roots, expected 1")
    simple = tuple(AlgElem.from_coords2(len(r), r) for r in _simple2(algebra).tolist())
    return RootBasis(algebra.lower(), simple, all_roots(algebra)[dominant[0]])


def reflect(x: AlgElem, a: AlgElem) -> AlgElem:
    """Weyl reflection x -> -a conj(x) a / |a|^2 in the hyperplane a-perp."""
    n = norm_sq(a)
    if n == 0:
        raise ValueError("cannot reflect in a zero root")
    return -cd_multiply(a, cd_multiply(conj(x), a)) * (1 / n)


def _reflect_rows(cartan: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Every simple reflection of every row of simple-root coefficients:
    out[r, i] = s_i beta_r = beta_r - (A beta_r)_i e_i, where
    A_ij = <alpha_i^vee, alpha_j>, so a symmetrizable Cartan matrix needs
    nothing more than a symmetric one."""
    k = len(cartan)
    return coef[:, None, :] - (coef @ cartan.T)[:, :, None] * np.eye(k, dtype=np.int64)


@lru_cache(maxsize=None)
def _root_closure(algebra: str) -> MappingProxyType:
    """The orbit of the simple roots e_i under _reflect_rows: a read-only
    map from each root's doubled coordinates (its coefficient row times
    the doubled simple roots), in sorted order, to its integer
    coefficients over the simple roots."""
    s2, cartan = _simple2(algebra), np.array(cartan_matrix(algebra))
    k = len(s2)
    roots = dict.fromkeys(map(tuple, np.eye(k, dtype=np.int64).tolist()))
    frontier = list(roots)
    while frontier:
        img = _reflect_rows(cartan, np.array(frontier)).reshape(-1, k).tolist()
        frontier = list(dict.fromkeys(c for c in map(tuple, img) if c not in roots))
        roots.update(dict.fromkeys(frontier))
    coef = list(roots)
    x2 = map(tuple, (np.array(coef) @ s2).tolist())
    return MappingProxyType(dict(sorted(zip(x2, coef))))


@lru_cache(maxsize=None)
def all_roots(algebra: str) -> tuple:
    """The roots of _root_closure(algebra), sorted by coords."""
    return tuple(AlgElem.from_coords2(len(r), r) for r in _root_closure(algebra))


def cartan_matrix(algebra: str) -> list[list[int]]:
    """A_ij = 2 (alpha_i, alpha_j) = (s2 s2^T)_ij / 2 on the doubled simple
    roots s2; RuntimeError unless every A_ii is 2 and every A_ij an
    integer, i.e. unless the simple roots are unit roots of a
    simply-laced system."""
    s2 = _simple2(algebra)
    gram = s2 @ s2.T
    if np.any(gram % 2) or np.any(np.diag(gram) != 4):
        raise RuntimeError(f"the simple roots of {algebra} give no simply-laced Cartan matrix")
    return (gram // 2).tolist()


def theta_marks(algebra: str) -> list[int]:
    """Coefficients of the highest root over the simple roots, as the root
    closure recorded them."""
    return list(_root_closure(algebra)[root_basis(algebra).theta.coords2])


# -- W+(D4) ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _qset() -> tuple:
    out = []
    for k in range(4):
        for s in (1, -1):
            out.append(s * basis_unit(4, k))
    return tuple(out)


def d4_even_element(a: AlgElem, b: AlgElem) -> LinMap:
    """The even Weyl element x -> a x b, admissible only when ab lies in
    the quaternion group Q8 = {+-1, +-e1, +-e5, +-e6} (triality elements
    are rejected).

    These 96 maps form the group W+(D4) of the 24 Hurwitz elements of
    norm 2.  It is conjugate under triality to the group generated by
    the products of reflections in the roots all_roots("d4"), the 24
    units, which is {x -> a x b : a conj(b) in Q8}; the two share 32
    elements.  Which of them the paper's convention means is open."""
    for u in (a, b):
        if not is_unit(HURWITZ, u):
            raise ValueError("a, b must be Hurwitz units")
    if cd_multiply(a, b) not in _qset():
        raise ValueError("ab is not in the quaternion group: triality outer element")
    return _bimult_map(a, b)


def d4_even_count() -> int:
    """|W+(D4)| = 96, the group of d4_even_element: the order of the
    stabilizer chain of its generators, the conjugations x -> a x conj(a)
    and the right multiplications x -> x q, q in Q8, since x -> a x b is
    x -> (a x conj(a)) q with q = ab."""
    gens = ([d4_even_element(a, conj(a)) for a in units(HURWITZ)]
            + [d4_even_element(one(4), q) for q in _qset()])
    return _order(_stabilizer_chain(np.stack([g.matrix2() for g in gens])))


def s_relation_composite() -> LinMap:
    """Composite of the even generators s_1 s_3 s_4 on the quaternions.

    With the theta = 1 basis this composes to minus the identity on the
    algebra (the central even Weyl element), i.e. the printed relation
    holds only up to the center.
    """
    e1, _, e5, e6 = D4_SIMPLE_ROOTS
    m = LinMap.identity(4)
    for eps in (e6, e5, e1):
        m = sandwich_map(eps) * m
    return m


# -- automorphism criteria (nested conjugations) ---------------------------


def nested_conjugation_map(seq) -> LinMap:
    """The LinMap of x -> a_1(a_2( ... (a_k x a_k^{-1}) ... )a_2^{-1})a_1^{-1}:
    the composition brandt_conjugation(a_1) o ... o brandt_conjugation(a_k)
    of integer maps ((a x) a^{-1} = a (x a^{-1}) by flexibility).  Each
    a_i must be a unit whose conjugation keeps the half-integer lattice,
    as every octavian unit's does; otherwise ValueError."""
    if not seq:
        raise ValueError("need a nonempty sequence of nonzero elements")
    return reduce(LinMap.__mul__, map(brandt_conjugation, seq))


def is_automorphism_bimult(seq) -> bool:
    """Exact criterion for nested conjugation by a_1..a_k: the map is an
    algebra automorphism iff b_k = a_k^2( ... (a_2^2 a_1^3 a_2) ... )a_k
    is real."""
    seq = list(seq)
    if not seq or any(a.is_zero() for a in seq):
        raise ValueError("need a nonempty sequence of nonzero elements")
    b = cd_multiply(seq[0], cd_multiply(seq[0], seq[0]))
    for a in seq[1:]:
        b = cd_multiply(a, cd_multiply(a, cd_multiply(b, a)))
    return not any(b.num[1:])


def unit_corollary_check(seq) -> bool:
    """For imaginary or real units a_i, the nested conjugation is an
    automorphism iff (((a_1 a_2)a_3)...a_k) = +-1.

    Note this refers to the conjugation map of the general criterion.
    The plain sandwich differs from it by (-1)^k for imaginary units, so
    for odd k the sandwich itself is minus an automorphism.
    """
    prod = seq[0]
    for a in seq[1:]:
        prod = cd_multiply(prod, a)
    return prod == one(prod.dim) or prod == -one(prod.dim)


# -- G2(2) = Aut(O) --------------------------------------------------------


@lru_cache(maxsize=None)
def _outer_automorphism() -> LinMap:
    """A lattice automorphism outside H, the group of the Brandt
    conjugations, which has index 2 in Aut(O): the first sign change of
    e1..e7 that is an automorphism and not in H.  (Every sign change that
    keeps the octonion table keeps the octavian lattice too.)"""
    inner_keys = set(_keys(_brandt_closure()))
    for signs in itertools.product((-2, 2), repeat=7):
        phi = LinMap(8, tuple(map(tuple, np.diag((2,) + signs).tolist())))
        if phi.key() not in inner_keys and is_automorphism_map(phi):
            return phi
    raise RuntimeError("no outer automorphism found (table inconsistency)")


def _keys(mats: np.ndarray) -> list:
    """int8 byte keys of a stack of 8x8 doubled-coordinate matrices."""
    flat = mats.astype(np.int8).tobytes()
    return [flat[i:i + 64] for i in range(0, len(flat), 64)]


# Three Brandt conjugations, by index into octavian_unit_classes()[1],
# already generate H; no two of the 112 do.  They conjugate by
# (1 + e1 + e2 + e4)/2, (1 + e1 + e2 - e4)/2 and (1 + e1 + e3 + e7)/2.
_BRANDT_GENERATORS = (111, 110, 109)


@lru_cache(maxsize=None)
def _brandt_closure() -> np.ndarray:
    """The 6048 matrices of H = G2(2)', the group generated by the
    Brandt conjugations: each element of the stabilizer chain of three of
    them is "u_k, then ..., then u_1", one transversal row u_d per level,
    and its matrix rows are its images of the basis units, in int8 (the
    doubled coordinates of a unit lie in [-2, 2])."""
    _, brandt, _ = octavian_unit_classes()
    codes, units2 = _coded_units(8)
    images = np.searchsorted(codes, _unit_codes(2 * np.eye(8, dtype=np.int64)))[None]
    for _, trans, _, _ in reversed(_stabilizer_chain(np.stack(
            [brandt_conjugation(brandt[i]).matrix2() for i in _BRANDT_GENERATORS]))):
        images = trans[:, images].reshape(-1, 8)
    if len(images) != 6048:
        raise RuntimeError(f"the Brandt closure has {len(images)} elements, expected 6048")
    return _readonly(units2[images].astype(np.int8))


@dataclass(frozen=True, slots=True)
class _G2Maps(Sequence):
    """The read-only sequence of generate_G2_2(): map i is built on access
    from the shared row tuples rows[j], j in pos[8 i:8 i + 8]."""

    rows: tuple
    pos: bytes

    def __len__(self) -> int:
        return len(self.pos) >> 3

    def __getitem__(self, i):
        k = range(len(self))[i]  # tuple indexing: negative i, IndexError, slices
        if isinstance(k, range):
            return tuple(map(self.__getitem__, k))
        return LinMap(8, tuple(map(self.rows.__getitem__, self.pos[8 * k:8 * k + 8])))


@lru_cache(maxsize=None)
def generate_G2_2() -> Sequence:
    """Aut(O) = G2(2), order 12 096, sorted by rows2: a read-only sequence
    of LinMaps, each built on access.

    The Brandt conjugations close into the index-2 derived subgroup H
    of order 6048, so the group is H u H phi for the outer automorphism
    phi found by _outer_automorphism.  An automorphism fixes 1 and maps
    e1..e7 to imaginary units, so the maps share 127 row tuples: the
    image of 1 and the 126 imaginary units, in sorted order.  A map is
    kept as the positions of its rows among them, one byte each, so the
    maps sort by rows2 as their positions do, packed 7 bits each into one
    int64; sorted, they are distinct iff no two neighbours are equal.
    """
    rows = tuple(sorted([one(8).coords2] + [g.coords2 for g in imaginary_units()]))
    codes = _unit_codes(rows)
    where = np.zeros(5 ** 8, dtype=np.uint8)  # code -> position in rows
    where[codes] = np.arange(len(rows))
    h = _brandt_closure()
    # phi is a sign change, so each m phi is m with its columns signed
    signs = np.diagonal(_outer_automorphism().matrix2()) // 2
    found = _unit_codes(np.concatenate([h, h * signs.astype(np.int8)]))  # (12096, 8)
    pos = where[found]
    if np.any(codes[pos] != found):
        raise RuntimeError("a G2(2) map takes a basis unit off 1 and the imaginary units")
    packed = (pos.astype(np.int64) << 7 * np.arange(7, -1, -1)).sum(axis=1)
    order = np.argsort(packed)
    if np.any(np.diff(packed[order]) == 0):
        raise RuntimeError("H u H phi does not have 12096 distinct elements")
    return _G2Maps(rows, pos[order].tobytes())


@lru_cache(maxsize=None)
def _g2_stack() -> np.ndarray:
    """The matrix2() of generate_G2_2(), in its order, as one int8 stack
    gathered from the shared rows.  Entries lie in [-2, 2]."""
    maps = generate_G2_2()
    rows = np.array(maps.rows, dtype=np.int8)
    return _readonly(rows[np.frombuffer(maps.pos, dtype=np.uint8)].reshape(-1, 8, 8))


@lru_cache(maxsize=None)
def g2_key_set() -> frozenset:
    """The key() of every element of generate_G2_2()."""
    return frozenset(_keys(_g2_stack()))


@lru_cache(maxsize=None)
def imaginary_units() -> tuple:
    """The 126 imaginary unit octavians, sorted by coords."""
    return octavian_unit_classes()[2]


# -- W+(E7) ----------------------------------------------------------------


def e7_element(g: AlgElem, h: AlgElem, phi: LinMap) -> LinMap:
    """x -> g(h phi(x) h)g for imaginary units g, h and phi in G2(2)."""
    for u in (g, h):
        if u.num[0] or not is_unit(OCTAVIAN, u):
            raise ValueError("g and h must be imaginary unit octavians")
    if phi.key() not in g2_key_set():
        raise ValueError("phi is not an octavian automorphism")
    return sandwich_map(g) * (sandwich_map(h) * phi)


@lru_cache(maxsize=1)
def _sandwich_stack() -> np.ndarray:
    """Integer matrices of the imaginary-unit sandwich maps, index order
    matching imaginary_units(), in one _bimult_rows batch."""
    imag2 = np.array([g.coords2 for g in imaginary_units()], dtype=np.int64)
    return _readonly(_bimult_rows(imag2, imag2))


@lru_cache(maxsize=1)
def _imaginary_factor_table() -> tuple:
    """The products of the 126 x 126 imaginary-unit pairs, in one batched
    algebra._mult2.

    Pair k = 126 i + j is (g, h) = (imag[i], imag[j]) with imag =
    imaginary_units(), so pair indices run g-major.  Returns (codes,
    prod, first, class_first): codes are the sorted _unit_codes of the
    240 unit octavians, prod[k] the position in codes of g h, first[u]
    the least pair with g h = u and class_first[u] the least pair with
    g h = +-u.  Pairs with equal +-gh lie in one left coset of G2(2)
    (checked by tests/test_rootsys.py::test_w_e8_orbit_stabilizer_proof),
    so the 120 class-first pairs stand for all 15 876.
    """
    # int8 holds every doubled product coordinate (|sums| <= 8 * 2 * 2)
    imag2 = np.array([g.coords2 for g in imaginary_units()], dtype=np.int8)
    n, codes = len(imag2), _coded_units(8)[0]
    prod = np.searchsorted(codes, _unit_codes(
        _mult2(np.repeat(imag2, n, axis=0), np.tile(imag2, (n, 1)))))
    first = np.full(len(codes), n * n)
    np.minimum.at(first, prod, np.arange(n * n))
    neg = np.searchsorted(codes, 5 ** 8 - 1 - codes)
    return tuple(map(_readonly, (codes, prod, first, np.minimum(first, first[neg]))))


@lru_cache(maxsize=2)
def _class_composites(outer_first: bool) -> tuple:
    """The 120 class-first pairs, ascending, as Python ints, and their
    float32 sandwich composites side by side in one (8, 960) array:
    columns 8 i to 8 i + 7 hold pair i's matrix(sigma(h) o sigma(g)) when
    outer_first, else matrix(sigma(g) o sigma(h)), so one 2-D product
    makes every candidate.  Entries lie in [-2, 2], so every product with
    another such 8 x 8 matrix sums terms of at most 4 to at most
    32 < 2^24, and float32 holds each partial sum exactly."""
    # the distinct entries, ascending, without np.unique (whose first call
    # imports numpy.ma, 11-16 ms of a cold process)
    ks = np.flatnonzero(np.bincount(_imaginary_factor_table()[3]))
    s = _sandwich_stack()
    n = len(s)
    # row-vector convention: matrix(a o b) = matrix(b) @ matrix(a)
    gs, hs = s[ks // n], s[ks % n]
    comps = _product2(gs, hs) if outer_first else _product2(hs, gs)
    side = comps.transpose(1, 0, 2).reshape(8, -1).astype(np.float32)
    return tuple(ks.tolist()), _readonly(side)


def _sigma_residue_search(m2, outer_first: bool):
    """First (g, h) pair, scanning g-major, whose sandwich composite
    leaves an automorphism residue phi of the map with doubled-coordinate
    rows m2 (rows2 or an integer matrix2()), plus that residue.

    outer_first=True searches phi = sigma(h) o sigma(g) o m (the W(E7)
    normal form); False searches phi = sigma(g) o sigma(h) o m (the
    W(E8) stabilizer form).  Pairs with equal +-gh all pass or all fail
    (they share a G2(2) coset), so only the 120 class-first pairs of
    _imaginary_factor_table are keyed, in ascending order; the first
    that passes is the first pair of the full 126 x 126 scan.  All 120
    candidates come from one float32 matmul, exact by the bound in
    _class_composites, halved and floored as the integer product would be.
    """
    m2 = np.asarray(m2, dtype=np.float32)
    if np.abs(m2).max() > 2:  # not an isometry; also keeps float32 exact
        raise ValueError("no sandwich-pair residue is an automorphism")
    ks, comps = _class_composites(outer_first)
    cand = m2 @ comps
    cand *= 0.5
    np.floor(cand, out=cand)
    # candidate-major: candidate i is cand[i] and the key flat[64 i:64 i + 64]
    cand = cand.reshape(8, -1, 8).transpose(1, 0, 2).astype(np.int8, order="C")
    keys = g2_key_set()
    flat = cand.tobytes()
    for at in range(0, len(flat), 64):
        if flat[at:at + 64] in keys:
            imag = imaginary_units()
            g, h = divmod(ks[at >> 6], len(imag))
            return imag[g], imag[h], LinMap(8, tuple(map(tuple, cand[at >> 6].tolist())))
    raise ValueError("no sandwich-pair residue is an automorphism")


def e7_normal_form(m: LinMap):
    """Decompose an even W(E7) element as (b, phi) with b = gh.

    Searches imaginary-unit pairs (g, h) in deterministic order for an
    automorphism residue phi = sigma_{g,h}^{-1} o m; returns
    (b, phi, (g, h)) with b canonicalized to its lexicographically least
    sign representative.
    """
    # phi = sigma(h) o sigma(g) o m, i.e. x -> h(g x g)h applied after m
    g, h, phi = _sigma_residue_search(m.rows2, outer_first=True)
    b = cd_multiply(g, h)
    bc = min(b, -b, key=lambda u: u.coords)
    return bc, phi, (g, h)


def _w_e7_generators() -> np.ndarray:
    """Three Brandt conjugations and four imaginary sandwich pairs."""
    imag = imaginary_units()
    _, brandt, _ = octavian_unit_classes()
    # conjugations by (1 + e1 + e2 +- e4)/2 and (1 + e1 - e2 + e4)/2
    gens = [brandt_conjugation(brandt[i]).matrix2() for i in (111, 110, 101)]
    for g, h in itertools.islice(itertools.combinations(imag, 2), 4):
        gens.append((sandwich_map(g) * sandwich_map(h)).matrix2())
    return np.stack(gens)


def generate_w_e7() -> int:
    """|W+(E7)| = 1 451 520 from the stabilizer chain of its generators."""
    return _order(_stabilizer_chain(_w_e7_generators()))


# -- W+(E8) ----------------------------------------------------------------


def factor_into_imaginaries(b: AlgElem):
    """Write the unit octavian b as gh with imaginary units g, h: the
    first such pair in g-major order, read off _imaginary_factor_table."""
    if not is_unit(OCTAVIAN, b):
        raise ValueError("b must be a unit octavian")
    codes, _, first, _ = _imaginary_factor_table()
    u = int(np.searchsorted(codes, _unit_codes(b.coords2)))
    imag = imaginary_units()
    g, h = divmod(int(first[u]), len(imag))
    return imag[g], imag[h]


def e8_element(e: AlgElem, f: AlgElem, b: AlgElem, phi: LinMap) -> LinMap:
    """x -> (f(e phi(x) e)f) b; with b = 1 this is the stabilizer form."""
    for u in (e, f):
        # a unit with real part 0 or +-1 is imaginary or +-1
        if not is_unit(OCTAVIAN, u) or u.coords2[0] not in (-2, 0, 2):
            raise ValueError("e and f must be imaginary or real units")
    if not is_unit(OCTAVIAN, b):
        raise ValueError("b must be a unit octavian")
    if phi.key() not in g2_key_set():
        raise ValueError("phi is not an octavian automorphism")
    # R_b o sigma_f o sigma_e o phi, in the order of the nested products;
    # the four doubled matrices multiply to 8 times the doubled composite
    rows = (phi.matrix2() @ _unit_matrix2(sandwich_map, e)
            @ _unit_matrix2(sandwich_map, f) @ _unit_matrix2(right_mult_map, b))
    if (rows & 7).any():
        raise ArithmeticError("product left the half-integer lattice")
    rows >>= 3
    return LinMap(8, tuple(map(tuple, rows.tolist())))


def e8_decompose(m: LinMap):
    """Recover (e, f, b, phi) with m = e8_element(e, f, b, phi).

    b = m(1); the residual m o (right mult b)^{-1} fixes 1 and is searched
    as sandwich pair times automorphism.

    A decomposition proves det m = 1, since right multiplications by
    units, sandwich maps and G2(2) all lie in SO(8).  So the determinant
    is computed only on failure: an odd isometry raises "m is not an even
    isometry" whatever step failed, as if it had been checked first.
    """
    m2 = m.matrix2()
    if not _is_orthogonal2(m2):
        raise ValueError("m is not an even isometry")
    try:
        b = AlgElem.from_coords2(8, m.rows2[0])
        if not is_unit(OCTAVIAN, b):
            raise ValueError("m does not preserve the octavian lattice")
        # (right mult conj(b)) o m; an isometry, so its entries lie in
        # [-2, 2] and int8 holds its key
        stab2 = _product2(m2, _unit_matrix2(right_mult_map, conj(b)))
        if stab2.astype(np.int8).tobytes() in g2_key_set():
            return one(8), one(8), b, LinMap(8, tuple(map(tuple, stab2.tolist())))
        try:
            # phi = sigma(e) o sigma(f) o stab, i.e. sigma^{-1}: x -> e(f x f)e
            e, f, phi = _sigma_residue_search(stab2, outer_first=False)
        except ValueError:
            raise ValueError("decomposition search failed (lattice inconsistency)")
    except (ValueError, ArithmeticError):
        if m.det() != 1:
            raise ValueError("m is not an even isometry") from None
        raise
    return e, f, b, phi


def w_e8_order() -> int:
    """|W+(E8)| = 348 364 800 = 240 x 120 x 12096, the order of the
    stabilizer chain of the W+(E7) generators and one right multiplication
    by a Brandt unit, which moves 1."""
    b = octavian_unit_classes()[1][0]
    return _order(_stabilizer_chain(np.concatenate(
        [_w_e7_generators(), right_mult_map(b).matrix2()[None]])))
