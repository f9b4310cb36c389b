"""Finite root systems D4, E7, E8 inside the division algebras.

Roots are unit lattice elements; reflections are the quaternion/octonion
sandwich maps x -> -a conj(x) a.  The module also builds the octavian
automorphism group G2(2) = Aut(O) as H u H phi, where H is the matrix
closure of the Brandt conjugations (the index-2 derived subgroup) and
phi one outer automorphism; the even Weyl groups W+(D4), W+(E7) (normal
forms, optional full closure) and the orbit-stabilizer bookkeeping for
W+(E8), together with the nested conjugation automorphism criterion and
its unit corollary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import (
    AlgElem,
    basis_unit,
    cd_multiply,
    conj,
    inner,
    invert,
    norm_sq,
    one,
    real_part,
)
from .rings import (
    D4_SIMPLE_ROOTS,
    E8_SIMPLE_ROOTS,
    HURWITZ,
    OCTAVIAN,
    _mult2,
    is_member,
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


@dataclass(frozen=True)
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

    def apply(self, x: AlgElem) -> AlgElem:
        if x.dim != self.dim:
            raise ValueError("dimension mismatch")
        coords = [Fraction(0)] * self.dim
        for i, ci in enumerate(x.coords):
            if ci:
                row = self.rows2[i]
                for j in range(self.dim):
                    if row[j]:
                        coords[j] += ci * Fraction(row[j], 2)
        return AlgElem(self.dim, tuple(coords))

    def __mul__(self, other: "LinMap") -> "LinMap":
        """Composition self o other (other acts first)."""
        prod = _product2(other.matrix2(), self.matrix2())
        return LinMap(self.dim, tuple(map(tuple, prod.tolist())))

    def key(self) -> bytes:
        return self.matrix2().astype(np.int8).tobytes()

    def is_orthogonal(self) -> bool:
        m = self.matrix2()
        return bool(np.array_equal(m @ m.T, 4 * np.eye(self.dim, dtype=np.int64)))

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


def _product2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b) / 2 for doubled-coordinate matrices (stacks broadcast)."""
    prod = a @ b
    if np.any(prod % 2):
        raise ArithmeticError("product left the half-integer lattice")
    return prod // 2


@lru_cache(maxsize=4096)
def sandwich_map(a: AlgElem) -> LinMap:
    """The map x -> a x a (unambiguous by flexibility)."""
    return LinMap.from_callable(a.dim, lambda x: cd_multiply(a, cd_multiply(x, a)))


@lru_cache(maxsize=4096)
def right_mult_map(b: AlgElem) -> LinMap:
    return LinMap.from_callable(b.dim, lambda x: cd_multiply(x, b))


def brandt_conjugation(a: AlgElem) -> LinMap:
    """x -> a x a^{-1}; an automorphism exactly when a is a Brandt unit."""
    ai = invert(a)
    return LinMap.from_callable(a.dim, lambda x: cd_multiply(a, cd_multiply(x, ai)))


def is_automorphism_map(m: LinMap) -> bool:
    """Brute-force multiplicativity on all basis pairs."""
    imgs = [m.apply(basis_unit(m.dim, i)) for i in range(m.dim)]
    for i in range(m.dim):
        for j in range(m.dim):
            lhs = m.apply(cd_multiply(basis_unit(m.dim, i), basis_unit(m.dim, j)))
            if lhs != cd_multiply(imgs[i], imgs[j]):
                return False
    return True


# -- root bases ------------------------------------------------------------


@dataclass(frozen=True)
class RootBasis:
    algebra: str
    simple_roots: tuple
    theta: AlgElem


def _simple_roots(algebra: str) -> tuple:
    algebra = algebra.lower()
    if algebra == "d4":
        simple = D4_SIMPLE_ROOTS
    elif algebra == "e8":
        simple = E8_SIMPLE_ROOTS
    elif algebra == "e7":
        simple = E8_SIMPLE_ROOTS[1:]
    else:
        raise ValueError(f"unknown root system {algebra!r}")
    if any(norm_sq(r) != 1 for r in simple):
        raise RuntimeError(f"simple roots of {algebra} do not have unit norm")
    return simple


@lru_cache(maxsize=None)
def root_basis(algebra: str) -> RootBasis:
    """Simple roots and highest root theta.

    In an irreducible simply-laced root system the highest root is the
    only root with (theta, alpha) >= 0 for every simple root alpha.
    """
    simple = _simple_roots(algebra)
    dominant = [r for r in all_roots(algebra)
                if all(inner(r, a) >= 0 for a in simple)]
    if len(dominant) != 1:
        raise RuntimeError(f"{algebra} has {len(dominant)} dominant roots, expected 1")
    return RootBasis(algebra.lower(), simple, dominant[0])


def reflect(x: AlgElem, a: AlgElem) -> AlgElem:
    """Weyl reflection x -> -a conj(x) a / |a|^2 in the hyperplane a-perp."""
    n = norm_sq(a)
    if n == 0:
        raise ValueError("cannot reflect in a zero root")
    return -cd_multiply(a, cd_multiply(conj(x), a)) * (1 / n)


@lru_cache(maxsize=None)
def all_roots(algebra: str) -> tuple:
    """Closure of the simple roots under simple reflections."""
    simple = _simple_roots(algebra)
    roots = set(simple)
    frontier = list(roots)
    while frontier:
        new = []
        for r in frontier:
            for s in simple:
                img = reflect(r, s)
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return tuple(sorted(roots, key=lambda u: u.coords))


def cartan_matrix(algebra: str) -> list[list[int]]:
    """A_ij = 2 (eps_i, eps_j) for the unit-norm simple roots."""
    simple = _simple_roots(algebra)
    out = []
    for a in simple:
        row = []
        for b in simple:
            v = 2 * inner(a, b)
            if v.denominator != 1:
                raise ArithmeticError(f"Cartan entry {v} of {algebra} is not an integer")
            row.append(v.numerator)
        out.append(row)
    return out


def _root_coefficients(simple, x):
    """Exact coefficients of x in the (possibly non-spanning) simple-root basis."""
    dim = x.dim
    k = len(simple)
    # least-squares-free exact solve via the Gram matrix (roots independent)
    gram = [[inner(a, b) for b in simple] for a in simple]
    rhs = [inner(a, x) for a in simple]
    aug = [list(gram[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    coeffs = [aug[i][k] for i in range(k)]
    recon = AlgElem(dim, tuple(Fraction(0) for _ in range(dim)))
    for c, r in zip(coeffs, simple):
        recon = recon + r * c
    if recon != x:
        raise ValueError("element is outside the span of the simple roots")
    return coeffs


def theta_marks(algebra: str) -> list[int]:
    """Coefficients of the highest root over the simple roots."""
    basis = root_basis(algebra)
    coeffs = _root_coefficients(basis.simple_roots, basis.theta)
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError(f"highest root of {algebra} has non-integral marks")
    return [c.numerator for c in coeffs]


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
    the quaternion group {+-1, +-e1, +-e5, +-e6} (triality elements are
    rejected)."""
    for u in (a, b):
        if not (is_member(HURWITZ, u) and norm_sq(u) == 1):
            raise ValueError("a, b must be Hurwitz units")
    if cd_multiply(a, b) not in _qset():
        raise ValueError("ab is not in the quaternion group: triality outer element")
    return LinMap.from_callable(4, lambda x: cd_multiply(a, cd_multiply(x, b)))


def d4_even_count() -> int:
    """|W+(D4)| by enumerating admissible bimultiplications mod (a,b)~(-a,-b)."""
    seen = set()
    for a in units(HURWITZ):
        for b in units(HURWITZ):
            if cd_multiply(a, b) in _qset():
                seen.add(d4_even_element(a, b).key())
    return len(seen)


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


def nested_conjugation(seq, x: AlgElem) -> AlgElem:
    """x -> a_1(a_2( ... (a_k x a_k^{-1}) ... )a_2^{-1})a_1^{-1}."""
    out = x
    for a in reversed(seq):
        out = cd_multiply(a, cd_multiply(out, invert(a)))
    return out


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
    return b == AlgElem(b.dim, (real_part(b),) + (Fraction(0),) * (b.dim - 1))


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


def _basis_generated_automorphism(x, y, z) -> LinMap:
    """Automorphism candidate from images of e1, e5, e2 (which generate O)."""
    img = {1: x, 5: y, 2: z}
    img[6] = cd_multiply(x, y)       # e6 = e1 e5
    img[4] = cd_multiply(x, z)       # e4 = e1 e2
    img[3] = -cd_multiply(z, y)      # e3 = -e2 e5  (from e2 e3 = e5)
    img[7] = cd_multiply(x, img[3])  # e7 = e1 e3
    rows = [one(8).coords2] + [img[k].coords2 for k in range(1, 8)]
    return LinMap(8, tuple(rows))


@lru_cache(maxsize=None)
def _outer_automorphism() -> LinMap:
    """A lattice automorphism outside the Brandt-conjugation closure.

    The conjugations x -> a x a^{-1} by Brandt units generate only the
    index-2 derived subgroup of Aut(O) (order 6048), so one element of
    the outer coset is located by deterministic search over images of
    the generating units e1, e5, e2.
    """
    inner_keys = set(_keys(_brandt_closure()))
    for x in imaginary_units():
        for y in imaginary_units():
            if inner(x, y) != 0:
                continue
            xy = cd_multiply(x, y)
            for z in imaginary_units():
                if inner(z, x) or inner(z, y) or inner(z, xy):
                    continue
                phi = _basis_generated_automorphism(x, y, z)
                if phi.key() in inner_keys:
                    continue
                if is_automorphism_map(phi):
                    return phi
    raise RuntimeError("no outer automorphism found (table inconsistency)")


def _keys(mats: np.ndarray) -> list:
    """int8 byte keys of a stack of 8x8 doubled-coordinate matrices."""
    flat = mats.astype(np.int8).tobytes()
    return [flat[i:i + 64] for i in range(0, len(flat), 64)]


def _from_keys(keys) -> np.ndarray:
    return np.frombuffer(b"".join(keys), dtype=np.int8).reshape(-1, 8, 8).astype(np.int64)


def _matrix_closure(gens: np.ndarray, limit: int) -> list:
    """Keys of the group generated by gens, breadth first from the
    identity, in discovery order."""
    seen = dict.fromkeys(_keys(LinMap.identity(8).matrix2()[None]))
    frontier = list(seen)
    while frontier:
        mats = _from_keys(frontier)
        frontier = []
        for g in gens:
            for k in _keys(_product2(mats, g)):
                if k not in seen:
                    seen[k] = None
                    frontier.append(k)
        if len(seen) > limit:
            raise RuntimeError("closure exceeded the safety bound")
    return list(seen)


# Three Brandt conjugations, by index into octavian_unit_classes()[1],
# already generate H; no two of the 112 do.
_BRANDT_GENERATORS = (0, 1, 16)


@lru_cache(maxsize=None)
def _brandt_closure() -> np.ndarray:
    """The 6048 matrices of H = G2(2)', the group generated by the
    Brandt conjugations, closed from three of them."""
    _, brandt, _ = octavian_unit_classes()
    gens = np.stack([brandt_conjugation(brandt[i]).matrix2()
                     for i in _BRANDT_GENERATORS])
    keys = _matrix_closure(gens, limit=6048)
    if len(keys) != 6048:
        raise RuntimeError(f"the Brandt closure has {len(keys)} elements, expected 6048")
    return _from_keys(keys)


@lru_cache(maxsize=None)
def generate_G2_2() -> tuple:
    """Aut(O) = G2(2), order 12 096, sorted by rows2.

    The Brandt conjugations close into the index-2 derived subgroup H
    of order 6048, so the group is H u H phi for the outer automorphism
    phi found by _outer_automorphism.
    """
    h = _brandt_closure()
    mats = np.concatenate([h, _product2(h, _outer_automorphism().matrix2())])
    if len(set(_keys(mats))) != 12096:
        raise RuntimeError("H u H phi does not have 12096 distinct elements")
    flat = mats.reshape(len(mats), -1)
    order = np.lexsort(flat.T[::-1])  # lexicographic on rows2, first entry first
    return tuple(LinMap(8, tuple(map(tuple, mats[i].tolist()))) for i in order)


@lru_cache(maxsize=None)
def g2_key_set() -> frozenset:
    return frozenset(m.key() for m in generate_G2_2())


@lru_cache(maxsize=None)
def imaginary_units() -> tuple:
    """The 126 imaginary unit octavians, deterministic order."""
    _, _, imag = octavian_unit_classes()
    return tuple(sorted(imag, key=lambda u: u.coords))


# -- W+(E7) ----------------------------------------------------------------


def e7_element(g: AlgElem, h: AlgElem, phi: LinMap) -> LinMap:
    """x -> g(h phi(x) h)g for imaginary units g, h and phi in G2(2)."""
    for u in (g, h):
        if real_part(u) != 0 or norm_sq(u) != 1 or not is_member(OCTAVIAN, u):
            raise ValueError("g and h must be imaginary unit octavians")
    if phi.key() not in g2_key_set():
        raise ValueError("phi is not an octavian automorphism")
    return sandwich_map(g) * (sandwich_map(h) * phi)


@lru_cache(maxsize=1)
def _sandwich_stack() -> np.ndarray:
    """Integer matrices of the imaginary-unit sandwich maps, index order
    matching imaginary_units()."""
    return np.stack([sandwich_map(g).matrix2() for g in imaginary_units()])


def _unit_codes(x2: np.ndarray) -> np.ndarray:
    """Base-5 integer code of each row of doubled unit coordinates
    (entries in [-2, 2]); the code of -x is 5^8 - 1 minus that of x."""
    return (np.asarray(x2, dtype=np.int64) + 2) @ 5 ** np.arange(8, dtype=np.int64)


@lru_cache(maxsize=1)
def _imaginary_factor_table() -> tuple:
    """The products of the 126 x 126 imaginary-unit pairs, in one batched
    rings._mult2.

    Pair k = 126 i + j is (g, h) = (imag[i], imag[j]) with imag =
    imaginary_units(), so pair indices run g-major.  Returns (codes,
    prod, first, class_first): codes are the sorted _unit_codes of the
    240 unit octavians, prod[k] the position in codes of g h, first[u]
    the least pair with g h = u and class_first[u] the least pair with
    g h = +-u.  Pairs with equal +-gh lie in one left coset of G2(2)
    (checked by w_e8_order), so the 120 class-first pairs stand for
    all 15 876.
    """
    # int8 holds every doubled product coordinate (|sums| <= 8 * 2 * 2)
    imag2 = np.array([g.coords2 for g in imaginary_units()], dtype=np.int8)
    n = len(imag2)
    codes, prod = np.unique(
        _unit_codes(_mult2(np.repeat(imag2, n, axis=0), np.tile(imag2, (n, 1)))),
        return_inverse=True)
    if len(codes) != 240:
        raise RuntimeError(f"imaginary pairs give {len(codes)} products, expected 240")
    first = np.full(len(codes), n * n)
    np.minimum.at(first, prod, np.arange(n * n))
    neg = np.searchsorted(codes, 5 ** 8 - 1 - codes)
    return codes, prod, first, np.minimum(first, first[neg])


@lru_cache(maxsize=2)
def _class_composites(outer_first: bool) -> tuple:
    """The 120 class-first pairs, ascending, and their int8 sandwich
    composites: matrix(sigma(h) o sigma(g)) when outer_first, else
    matrix(sigma(g) o sigma(h)).  Entries lie in [-2, 2], so int8 also
    holds every product with another such matrix (|sums| <= 32)."""
    ks = np.unique(_imaginary_factor_table()[3])
    s = _sandwich_stack()
    n = len(s)
    # row-vector convention: matrix(a o b) = matrix(b) @ matrix(a)
    gs, hs = s[ks // n], s[ks % n]
    comps = _product2(gs, hs) if outer_first else _product2(hs, gs)
    return ks, comps.astype(np.int8)


def _sigma_residue_search(m: LinMap, outer_first: bool):
    """First (g, h) pair, scanning g-major, whose sandwich composite
    leaves an automorphism residue phi, plus that residue.

    outer_first=True searches phi = sigma(h) o sigma(g) o m (the W(E7)
    normal form); False searches phi = sigma(g) o sigma(h) o m (the
    W(E8) stabilizer form).  Pairs with equal +-gh all pass or all fail
    (they share a G2(2) coset), so only the 120 class-first pairs of
    _imaginary_factor_table are keyed, in ascending order; the first
    that passes is the first pair of the full 126 x 126 scan.
    """
    m2 = m.matrix2()
    if np.abs(m2).max() > 2:  # not an isometry; also keeps int8 exact
        raise ValueError("no sandwich-pair residue is an automorphism")
    ks, comps = _class_composites(outer_first)
    cand = m2.astype(np.int8) @ comps
    cand //= 2
    keys = g2_key_set()
    imag = imaginary_units()
    for k, c, key in zip(ks.tolist(), cand, _keys(cand)):
        if key in keys:
            g, h = divmod(k, len(imag))
            return imag[g], imag[h], LinMap(8, tuple(map(tuple, c.tolist())))
    raise ValueError("no sandwich-pair residue is an automorphism")


def e7_normal_form(m: LinMap):
    """Decompose an even W(E7) element as (b, phi) with b = gh.

    Searches imaginary-unit pairs (g, h) in deterministic order for an
    automorphism residue phi = sigma_{g,h}^{-1} o m; returns
    (b, phi, (g, h)) with b canonicalized to its lexicographically least
    sign representative.
    """
    # phi = sigma(h) o sigma(g) o m, i.e. x -> h(g x g)h applied after m
    g, h, phi = _sigma_residue_search(m, outer_first=True)
    b = cd_multiply(g, h)
    bc = min(b, -b, key=lambda u: u.coords)
    return bc, phi, (g, h)


def generate_w_e7() -> int:
    """Full matrix closure of W+(E7) (heavy: ~1.45M 8x8 matrices).

    Returns the group order.  Generators: three Brandt conjugations
    (in G2(2)) plus four imaginary sandwich pairs.
    """
    imag = imaginary_units()
    _, brandt, _ = octavian_unit_classes()
    gens = [brandt_conjugation(a).matrix2() for a in brandt[:3]]
    for g, h in itertools.islice(itertools.combinations(imag, 2), 4):
        gens.append((sandwich_map(g) * sandwich_map(h)).matrix2())
    return len(_matrix_closure(np.stack(gens), limit=2_000_000))


# -- W+(E8) ----------------------------------------------------------------


def factor_into_imaginaries(b: AlgElem):
    """Write the unit octavian b as gh with imaginary units g, h: the
    first such pair in g-major order, read off _imaginary_factor_table."""
    if norm_sq(b) != 1 or not is_member(OCTAVIAN, b):
        raise ValueError("b must be a unit octavian")
    codes, _, first, _ = _imaginary_factor_table()
    u = int(np.searchsorted(codes, _unit_codes(b.coords2)))
    imag = imaginary_units()
    g, h = divmod(int(first[u]), len(imag))
    return imag[g], imag[h]


def e8_element(e: AlgElem, f: AlgElem, b: AlgElem, phi: LinMap) -> LinMap:
    """x -> (f(e phi(x) e)f) b; with b = 1 this is the stabilizer form."""
    for u in (e, f):
        ok_imag = real_part(u) == 0 and norm_sq(u) == 1
        ok_real = u == one(8) or u == -one(8)
        if not (ok_imag or ok_real) or not is_member(OCTAVIAN, u):
            raise ValueError("e and f must be imaginary or real units")
    if norm_sq(b) != 1 or not is_member(OCTAVIAN, b):
        raise ValueError("b must be a unit octavian")
    if phi.key() not in g2_key_set():
        raise ValueError("phi is not an octavian automorphism")
    return right_mult_map(b) * (sandwich_map(f) * (sandwich_map(e) * phi))


def e8_decompose(m: LinMap):
    """Recover (e, f, b, phi) with m = e8_element(e, f, b, phi).

    b = m(1); the residual m o (right mult b)^{-1} fixes 1 and is searched
    as sandwich pair times automorphism.
    """
    if not m.is_orthogonal() or m.det() != 1:
        raise ValueError("m is not an even isometry")
    b = m.apply(one(8))
    if norm_sq(b) != 1 or not is_member(OCTAVIAN, b):
        raise ValueError("m does not preserve the octavian lattice")
    stab = right_mult_map(invert(b)) * m
    keys = g2_key_set()
    if stab.key() in keys:
        return one(8), one(8), b, stab
    try:
        # phi = sigma(e) o sigma(f) o stab, i.e. sigma^{-1}: x -> e(f x f)e
        e, f, phi = _sigma_residue_search(stab, outer_first=False)
    except ValueError:
        raise ValueError("decomposition search failed (lattice inconsistency)")
    return e, f, b, phi


def w_e8_order() -> int:
    """|W+(E8)| = 240 x 120 x 12096 via orbit-stabilizer.

    Verifies the ingredients rather than enumerating: the orbit of 1 under
    right multiplications is all 240 units (each an even isometry), every
    unit factors into two imaginaries (120 stabilizer cosets mod sign),
    and every one of the 126 x 126 sandwich pairs lies in the G2 coset of
    the class-first pair with the same +-gh.
    """
    all_units = units(OCTAVIAN)
    orbit = set()
    for b in all_units:
        rho = right_mult_map(b)
        if not rho.is_orthogonal() or rho.det() != 1:
            raise RuntimeError(f"right multiplication by {b} is not an even isometry")
        orbit.add(rho.apply(one(8)))
    if len(orbit) != 240:
        raise RuntimeError(f"orbit of 1 has {len(orbit)} points, expected 240")
    cosets = set()
    for b in all_units:
        g, h = factor_into_imaginaries(b)
        if cd_multiply(g, h) != b:
            raise RuntimeError(f"{b} does not factor into the imaginaries {g}, {h}")
        cosets.add(min(b, -b, key=lambda u: u.coords))
    if len(cosets) != 120:
        raise RuntimeError(f"{len(cosets)} stabilizer cosets, expected 120")
    # pair (g, h), its class-first pair (g', h'): equal +-gh must put
    # sigma(h') o sigma(g') o sigma(g) o sigma(h) in G2(2); one batched
    # product per g keeps the temporaries small
    _, prod, _, class_first = _imaginary_factor_table()
    s = _sandwich_stack().astype(np.int8)
    imag = imaginary_units()
    n = len(imag)
    keys = g2_key_set()
    for i, g in enumerate(imag):
        pairs = _product2(s, s[i])  # sigma(g) o sigma(h) for every h
        k1 = class_first[prod[i * n:(i + 1) * n]]
        back = _product2(s[k1 // n], s[k1 % n])  # sigma(h') o sigma(g')
        for h, key in zip(imag, _keys(_product2(pairs, back))):
            if key not in keys:
                raise RuntimeError(f"the sandwich pair ({g}, {h}) is not in the G2 "
                                   f"coset of its class-first pair")
    return 240 * 120 * 12096
