"""Numerical automorphic objects on the generalized upper half plane.

Truncated Eisenstein and Poincare series over the modular pairs (c, d),
the zeta/sigma relation tying them together, Fourier coefficients with
their Bessel profile, the resolvent Green function, and a critical-line
overlap diagnostic.  Everything here is floating point; truncation radii
are exact squared-norm bounds on the lattice shells.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import AlgElem, _mult2, _readonly, _structure_float, one
from .rings import (
    Ring,
    _EUCLID_BATCH,
    _decode2,
    _lattice_classes,
    _null_vectors,
    _require_int,
    enumerate_ball,
    shell_counts,
    units,
)
from .hyperweyl import build_w_tilde_cd, coset_reps
from .uhp import UhpPoint, act_word, laplace_beltrami_numeric

__all__ = [
    "FourierDatum",
    "SeriesParams",
    "bessel_k",
    "critical_line_diagnostic",
    "dual_basis",
    "eisenstein_truncated",
    "fourier_coefficient",
    "green_function",
    "green_pde_residual",
    "lattice_basis",
    "poincare_truncated",
    "poincare_via_words",
    "zeta_partial",
    "zeta_relation_check",
]


@dataclass(frozen=True)
class SeriesParams:
    """Truncation data for a modular series: max(|c|^2, |d|^2) <= radius."""

    ring: Ring
    s: complex
    radius: int
    z: UhpPoint
    exploratory: bool = field(default=False)

    def __post_init__(self):
        _require_int("radius", self.radius)
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.z.dim != self.ring.dim:
            raise ValueError("point dimension does not match ring")
        _require_finite_s(self.s)
        if complex(self.s).real <= self.ring.dim / 2 and not self.exploratory:
            warnings.warn(
                "Re(s) <= n/2: outside the certified convergence region",
                stacklevel=2,
            )


@dataclass(frozen=True)
class FourierDatum:
    """One Fourier coefficient estimate of a truncated series."""

    mu: tuple
    v: float
    coefficient: complex
    error_estimate: float


def _require_finite_s(s) -> None:
    """ValueError unless s is a finite number: a nan or infinite exponent
    would give a nan series value, which no JSON output can carry."""
    if not cmath.isfinite(complex(s)):
        raise ValueError("s must be finite")


# -- modular pair bookkeeping ------------------------------------------------


@lru_cache(maxsize=32)
def _d_side(ring: Ring, norm: int):
    """The d side of both series kernels over the ball |d|^2 <= norm, which
    does not depend on the point: the augmented rows b = [d | 1 | |d|^2]^T
    of their matmuls (C order: a fast matmul) and the start of each
    shell's column segment in the shell-major ball.  Shells with no point
    have no segment, since np.add.reduceat would return the next element,
    not 0, for an empty one.  _series_rows reads the truncation ball,
    _periodic_series_value the margin ball.
    """
    pts = enumerate_ball(ring, norm).astype(float) / 2.0
    nrm = (pts * pts).sum(axis=1)
    b = np.vstack([pts.T, np.ones(len(pts)), nrm])
    starts = np.flatnonzero(np.diff(np.rint(nrm).astype(np.int64), prepend=-1))
    return _readonly(b), _readonly(starts)


@lru_cache(maxsize=32)
def _ball_data(ring: Ring, radius: int):
    """Ball points (doubled int and float coordinates) with squared norms,
    the one row partition of every series: the ball indices `reps` of the
    first member c of each lattice class c^-bar O and the class sizes
    `weight` (rings._lattice_classes), and the shell keys max(|c|^2,
    |d|^2) of each row against each shell segment of _d_side(ring,
    radius), where _series_rows bins the row's per-shell sums.
    """
    pts2 = enumerate_ball(ring, radius)
    pts = pts2.astype(float) / 2.0
    nrm = (pts * pts).sum(axis=1)
    reps, weight = _lattice_classes(ring, radius)
    shell = np.rint(nrm).astype(np.int64)  # squared norms are integers
    key = np.maximum(shell[reps, None], shell[None, _d_side(ring, radius)[1]])
    return tuple(map(_readonly, (pts2, pts, nrm, reps, weight, key)))


def _neg_power(x: np.ndarray, s: complex) -> np.ndarray:
    """x^(-s) for positive x, computed in the buffer of x (which it
    overwrites): exp(-Re s log x) in real arithmetic, times the phase
    exp(-i Im s log x) in a new complex array only when Im s != 0."""
    log_x = np.log(x, out=x)
    if s.imag == 0:
        log_x *= -s.real
        return np.exp(log_x, out=log_x)
    phase = np.exp((-1j * s.imag) * log_x)
    log_x *= -s.real
    phase *= np.exp(log_x, out=log_x)
    return phase


def _series_rows(p: SeriesParams) -> complex:
    """Shell-major compensated sum of v^s / |cz+d|^(2s), one class row of
    c against the whole d-ball at a time: the Eisenstein kernel of the
    associative rings.  c runs over one row per lattice class c^-bar O
    (_ball_data, rings._lattice_classes), times the class size.

    Representative rows go in chunks of about 64k pairs.  The
    denominators of a chunk are one matmul of augmented rows,
    [2 cu | |cu|^2 + |c|^2 v^2 | 1] @ [d | 1 | |d|^2]^T = |cu + d|^2 +
    |c|^2 v^2, into one reused buffer.  The ball is shell-major, so
    np.add.reduceat over the column segments of its shells gives each
    row's per-shell sums; these are weighted by the class size and
    bucketed by the shell key max(|c|^2, |d|^2).  The per-shell totals
    are reduced in increasing shell order, so the result is deterministic
    and the summation order matches the truncation geometry.  Only the
    c side depends on z: the d rows, the segment starts and the shell
    keys are cached (_d_side, _ball_data).
    """
    ring, z, s = p.ring, p.z, complex(p.s)
    _, pts, nrm, reps, weight, key = _ball_data(ring, p.radius)
    b, starts = _d_side(ring, p.radius)
    u, v = z.u_vector(), z.v
    cu = _rep_products(pts[reps], u[None])[0]  # row i: c_i * u
    a = np.column_stack([2.0 * cu, (cu * cu).sum(axis=1) + nrm[reps] * v * v,
                         np.ones(len(reps))])
    n_shell = p.radius + 1
    acc_re = np.zeros(n_shell)
    acc_im = np.zeros(n_shell)
    chunk = min(len(reps), max(1, (1 << 16) // b.shape[1]))  # about 64k pairs
    buf = np.empty((chunk, b.shape[1]))
    for lo in range(0, len(reps), chunk):
        hi = min(lo + chunk, len(reps))
        denom = np.matmul(a[lo:hi], b, out=buf[:hi - lo])
        if lo == 0:
            # (c, d) = (0, 0) (reps[0] and pts[0] are zero): a finite
            # term, in shell 0, which the sum drops
            denom[0, 0] = 1.0
        sums = np.add.reduceat(_neg_power(denom, s), starts, axis=1) * weight[lo:hi, None]
        row_key = key[lo:hi].ravel()
        acc_re += np.bincount(row_key, weights=sums.real.ravel(), minlength=n_shell)
        if np.iscomplexobj(sums):
            acc_im += np.bincount(row_key, weights=sums.imag.ravel(), minlength=n_shell)
    # shell 0 holds only the pair (0, 0), which the series leaves out
    total = complex(math.fsum(acc_re[1:]), math.fsum(acc_im[1:]))
    return np.exp(s * np.log(v)) * total


@lru_cache(maxsize=4)
def _coprime_key_terms(ring: Ring, radius: int):
    """The primitive null vectors (k, y, l) of rings._null_vectors as
    series terms, in its order of shells j = max(k, l), read only: the
    columns [2y | k | l] of one (n + 2, T) array, so that one GEMV with
    [u | |u|^2 + v^2 | 1] gives every denominator; the first term of
    each shell, for np.add.reduceat; and the (shells, radius) matrix
    whose row for shell j holds sigma(g) / #units at g <= radius // j and
    0 past it (shell_counts), so that its product with the powers g^-s
    gives each shell's zeta_{radius // j} / #units (_series_keys).
    A vector is the key (|c|^2, c^-bar d, |d|^2) of #units pairs, whose
    term it gives: |cu + d|^2 + |c|^2 v^2 = (2y, u) + k (|u|^2 + v^2) + l
    by the alternative law c (c^-bar x) = |c|^2 x."""
    rows = _null_vectors(ring, radius)
    n = ring.dim
    shell = np.maximum(rows[:, n], rows[:, n + 1])
    starts = np.flatnonzero(np.diff(shell, prepend=-1))
    # the floats overwrite the int64 columns block by block: one table,
    # 219 MB at octavian radius 4, not two
    ints = rows.T
    cols = ints.view(float)
    for lo in range(0, len(rows), _EUCLID_BATCH):
        cols[:, lo:lo + _EUCLID_BATCH] = ints[:, lo:lo + _EUCLID_BATCH].astype(float)
    g = np.arange(1, radius + 1)
    conv = np.where(g <= radius // shell[starts, None],
                    shell_counts(ring, radius), 0) / len(units(ring))
    return tuple(map(_readonly, (cols, starts, conv)))


def _series_keys(p: SeriesParams, coprime_only: bool = False) -> complex:
    """The series sum over the terms of _coprime_key_terms: one GEMV gives
    every denominator, and one np.add.reduceat the per-shell sums of the
    terms, summed with math.fsum in increasing shell order and scaled by
    the #units pairs of a term: S_j, the sum over the pairs of shell j.
    The coprime sum is sum_j S_j.  The unrestricted sum is the
    sigma-convolution E_R = sum_g sigma(g) g^-s P_{R // g} (Krieg, LNM
    1143) with its sums swapped, sum_j zeta_{R // j} S_j / #units, where
    zeta_r = sum_{g <= r} sigma(g) g^-s is the partial sum of
    zeta_partial: one product of the table's convolution matrix with the
    R powers g^-s gives every weight.  The identity is exact for these
    truncations; the tests hold it to the class-row sums of all three
    rings."""
    cols, starts, conv = _coprime_key_terms(p.ring, p.radius)
    s, u, v = complex(p.s), p.z.u_vector(), p.z.v
    vals = _neg_power(np.concatenate([u, [u @ u + v * v, 1.0]]) @ cols, s)
    sums = np.add.reduceat(vals, starts)
    if not coprime_only:
        sums = sums * (conv @ _neg_power(np.arange(1.0, p.radius + 1), s))
    total = complex(math.fsum(sums.real), math.fsum(sums.imag)) * len(units(p.ring))
    return np.exp(s * np.log(v)) * total


def eisenstein_truncated(p: SeriesParams) -> complex:
    """Unrestricted series sum v^s / |cz+d|^(2s) over all nonzero pairs
    with max(|c|^2, |d|^2) <= radius.  Over the octavians the class rows
    against the ball hold few distinct keys (|c|^2, c^-bar d) (21,842
    left-coprime ones of 326,536 pairs at radius 2): the key table serves
    (_series_keys).  Over Z and the Hurwitz ring 92-94 % of the pairs have
    keys of their own, and the class-row matmuls (_series_rows) build no
    table: a cold Hurwitz radius 16 call took 8-12 ms and 33 MB on them,
    0.12-0.15 s and 72 MB on the keys (2-core host)."""
    return (_series_rows if p.ring.associative else _series_keys)(p)


def poincare_truncated(p: SeriesParams) -> complex:
    """Restricted series (1/N) sum over left-coprime pairs, N = #units, on
    the coprime keys in every ring (_series_keys): the primitive null
    vectors (rings._null_vectors), one per N left-coprime pairs."""
    return _series_keys(p, coprime_only=True) / len(units(p.ring))


@lru_cache(maxsize=8)
def _coset_class_words(ring: Ring, radius: int):
    """The coset words w~_{c,d} of hyperweyl.coset_reps(ring, radius): one
    per unit-orbit class {(ec, ed)} of the left-coprime pairs inside the
    truncation ball.

    Associative rings only: the orbit reduction uses |(e c) z + e d| =
    |e (cz + d)| = |cz + d|, which needs (e c) z = e (c z) for every unit
    e (ring.associative), and then every orbit has exactly N = #units
    members.  Over the octavians only the central units +-1 satisfy it.
    """
    if not ring.associative:
        raise ValueError("octavian pairs do not reduce to unit orbits; "
                         "use the term-level Lemma check instead")
    dim = ring.dim
    return tuple(build_w_tilde_cd(ring, AlgElem.from_coords2(dim, row[:dim]),
                                  AlgElem.from_coords2(dim, row[dim:]))
                 for row in coset_reps(ring, radius).tolist())


def poincare_via_words(p: SeriesParams) -> complex:
    """Independent Poincare path: sum I_s(w_cd(z)) over the coset words of
    the left-coprime pairs, one per unit orbit (the orbit members share
    |cz+d|, so the 1/N in the pair sum cancels against the orbit size)."""
    s = complex(p.s)
    terms = [act_word(w, p.z).v for w in _coset_class_words(p.ring, p.radius)]
    vals = np.exp(s * np.log(np.array(terms)))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


# -- zeta relation -----------------------------------------------------------


def zeta_partial(ring: Ring, s: complex, n_max: int) -> complex:
    """Partial sum of sum_{a != 0} (|a|^2)^(-s) = sum_k sigma(k) k^(-s)."""
    counts = shell_counts(ring, n_max)
    s = complex(s)
    ks = np.arange(1, n_max + 1, dtype=float)
    vals = np.array(counts) * np.exp(-s * np.log(ks))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def zeta_relation_check(ring: Ring, z: UhpPoint, s: complex, radius: int) -> float:
    """Residual |E_R - zeta_R * P_R| of the factorization E = zeta * P of
    the untruncated series.  The truncations obey the sigma-convolution
    E_R = sum_j zeta_{R // j} S_j / #units exactly (_series_keys; S_j the
    coprime pairs' sum over shell j), so this measures the truncation gap
    |sum_j (zeta_{R // j} - zeta_R) S_j| / #units, which falls as R grows,
    not a failure of the identity."""
    p = SeriesParams(ring, s, radius, z)
    e = eisenstein_truncated(p)
    zeta = zeta_partial(ring, s, radius)
    pval = poincare_truncated(p)
    return abs(e - zeta * pval)


# -- Fourier coefficients ----------------------------------------------------


def lattice_basis(ring: Ring) -> np.ndarray:
    """Rows: a Z-basis of the ring lattice (the simple-root basis)."""
    return np.array(ring.basis2) / 2.0


def dual_basis(ring: Ring) -> np.ndarray:
    """Rows: the dual-lattice basis, B* = G^(-1) B with Gram G = B B^T."""
    b = lattice_basis(ring)
    return np.linalg.solve(b @ b.T, b)


def _in_dual_lattice(ring: Ring, mu: np.ndarray) -> bool:
    """Exact membership: each coordinate of mu at its exact binary value,
    and 2 (mu, b) = (mu, b2) even for every simple root b = b2 / 2."""
    if not np.all(np.isfinite(mu)):
        return False
    mu = [Fraction(float(c)) for c in mu]
    return all(sum(m * b for m, b in zip(mu, b2)) % 2 == 0
               for b2 in ring.basis2)


def _nearest_lattice2(ring: Ring, targets: np.ndarray) -> np.ndarray:
    """Doubled coordinates of a lattice point nearest each row (true
    coords); within the covering radius, inside the margin of
    _margin_norm."""
    near = _decode2(ring, 2.0 * targets, np.ones(len(targets)))
    return np.rint(near).astype(np.int64)


def _margin_norm(radius: int) -> int:
    # d-candidate ball: truncation radius plus the covering radius
    # sqrt(1/2) of the D4 and E8 lattices at unit minimal norm (Z's is
    # 1/2), the farthest _nearest_lattice2 can land from its target
    return int(math.ceil((math.sqrt(radius) + math.sqrt(0.5)) ** 2 + 1e-9))


def _rep_products(cs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """(P, len(cs), n) array of the products c u of every row c of cs with
    every point u of us: one contraction of the structure constants with
    the points gives the right multiplications, one broadcast matmul
    applies them to cs."""
    n = cs.shape[1]
    s_b = _structure_float(n).transpose(1, 0, 2).reshape(n, n * n)  # [b, (a, k)]
    return cs @ (us @ s_b).reshape(len(us), n, n)


def _periodic_series_value(ring: Ring, s: complex, radius: int,
                           us: np.ndarray, v: float) -> np.ndarray:
    """Series values at the points u + iv, one per row u of the (P, n)
    array us, under a translation-covariant truncation: c over
    |c|^2 <= radius and, per c, d over the lattice ball |cu + d|^2 <=
    radius centered at -cu.

    The index set is carried to itself by u -> u + o for ring elements o,
    so the value is exactly periodic on the ring lattice.  The fixed-ball
    truncation of eisenstein_truncated is not periodic, and its
    aperiodicity would swamp the exponentially small Fourier modes.

    The truncation |cu + d|^2 = |c|^2 |u + c^-1 d|^2 <= radius is a
    condition on |c|^2 and x = c^-1 d, so d <-> d' = c'(c^-1 d) maps the
    d-ball of c onto the d-ball of any c' with c'^-bar O = c^-bar O,
    term for term.  So c runs over one row per lattice class
    (_ball_data), times the class size.

    Rows (point, c) go in chunks of about 512k (point, c, d) terms, each
    chunk within a block of whole points.  A row's displacement is w =
    cu + d0, with d0 the lattice point nearest -cu (one batched decode
    per block), and d runs over the margin ball around d0, which covers
    the ball |cu + d|^2 <= radius.  The denominators of a chunk are one
    matmul of augmented rows, [2 w | |w|^2 + |c|^2 v^2 | 1] @
    [d | 1 | |d|^2]^T (the cached _d_side of the margin ball), into one
    reused buffer; each row is summed over its kept d, then each point
    over its rows with their class sizes.
    """
    s = complex(s)
    n = ring.dim
    _, cpts, cnrm, reps, weight, _ = _ball_data(ring, radius)
    n_rep = len(reps)
    cv2 = cnrm[reps] * v * v
    b, _ = _d_side(ring, _margin_norm(radius))
    m = b.shape[1]
    chunk = max(1, (1 << 19) // m)  # rows per matmul
    block = min(len(us), max(1, chunk // n_rep))  # points per block
    buf = np.empty((min(chunk, block * n_rep), m))
    keep = np.empty(buf.shape, dtype=bool)
    out = np.empty(len(us), dtype=complex)
    for lo in range(0, len(us), block):
        hi = min(lo + block, len(us))
        cu = _rep_products(cpts[reps], us[lo:hi]).reshape(-1, n)
        w = cu + _nearest_lattice2(ring, -cu).astype(float) / 2.0
        row_cv2 = np.tile(cv2, hi - lo)
        a = np.column_stack([2.0 * w, (w * w).sum(axis=1) + row_cv2,
                             np.ones(len(w))])
        sums = np.empty(len(a), dtype=complex)
        for r0 in range(0, len(a), chunk):
            r1 = min(r0 + chunk, len(a))
            denom = np.matmul(a[r0:r1], b, out=buf[:r1 - r0])
            kept = np.less_equal(denom, (row_cv2[r0:r1] + (radius + 1e-9))[:, None],
                                 out=keep[:r1 - r0])
            # (c, d) = (0, 0): reps[0] and d[0] are zero, and so is the w
            # of c = 0, on every n_rep-th row
            zero = np.arange(-r0 % n_rep, r1 - r0, n_rep)
            kept[zero, 0] = False
            denom[zero, 0] = 1.0
            vals = _neg_power(denom, s)
            vals *= kept
            sums[r0:r1] = vals.sum(axis=1)
        out[lo:hi] = sums.reshape(hi - lo, n_rep) @ weight
    return np.exp(s * np.log(v)) * out


@lru_cache(maxsize=None)
def _grid_maps(ring: Ring):
    """The unit maps u -> e u e' that carry every midpoint grid to itself
    modulo the lattice: (maps, shift), the integer matrices M of the maps
    in lattice coordinates (row vectors, t -> t M) and the index shifts
    (1 M - 1) / 2.

    The series V of _periodic_series_value is invariant under these maps.
    For associative rings e and e' run over all units: c (e u e') + d =
    ((c e) u + d e'^-1) e', and c -> c e permutes the c-ball, d -> d e'^-1
    the lattice, and the d-ball of each c moves with them.  The octavians
    take only the central units +-1 (their right multiplications are
    symmetries too, by Moufang, but none fixes a grid).  The pairs (e, e')
    and (-e, -e') give one map, so e runs over the first half of the
    sorted units, which holds one unit of each pair +-e.

    One batched _mult2 gives the products e b of these e with the simple
    roots, a second the products (e b) e'; their lattice coordinates are
    checked exactly in integers.  The grid point t = (2k + 1) / 2m, k in
    [0, m)^n, goes to t M = (2 k M + 1 M) / 2m, a grid point modulo the
    lattice for every m exactly when 1 M - 1 is even, and then its index
    is k M + (1 M - 1) / 2 mod m.  The kept maps form a group, since
    1 M M' - 1 = (1 M - 1) M' + (1 M' - 1).
    """
    n = ring.dim
    us = np.array([e.coords2 for e in (units(ring) if ring.associative
                                       else (-one(n), one(n)))])
    left = us[:len(us) // 2]
    basis2 = np.array(ring.basis2)
    eb = _mult2(np.repeat(left, n, axis=0), np.tile(basis2, (len(left), 1)))
    ebe = _mult2(np.repeat(eb, len(us), axis=0), np.tile(us, (len(eb), 1)))
    # rows (e, b_r, e') -> map (e, e'), row r
    x2 = ebe.reshape(len(left), n, len(us), n).swapaxes(1, 2).reshape(-1, n)
    maps = np.rint(x2 @ np.linalg.inv(basis2)).astype(np.int64)
    if not np.array_equal(maps @ basis2, x2):
        raise ArithmeticError("a unit map left the lattice")
    maps = maps.reshape(-1, n, n)
    odd = maps.sum(axis=1) - 1
    fix = ~(odd & 1).any(axis=1)
    return _readonly(maps[fix]), _readonly(odd[fix] >> 1)


@lru_cache(maxsize=16)
def _grid_orbits(ring: Ring, m: int):
    """Orbits of the midpoint grid of m ticks per lattice axis, in the
    ravelled indexing="ij" order, under the maps of _grid_maps: (reps,
    orbit), the ascending indices of the least point of each orbit and
    the orbit number of every point.

    The maps form a group, so the least image of a point over all maps is
    the least point of its orbit, shared by every member: one vectorised
    min labels every point, and the points that are their own label are
    the representatives.
    """
    maps, shift = _grid_maps(ring)
    n = ring.dim
    k = np.indices((m,) * n).reshape(n, -1).T
    # one 2-D matmul for all maps: column (map g, axis j) of k M_g
    images = (k @ maps.swapaxes(0, 1).reshape(n, -1) + shift.ravel()) % m
    label = (images.reshape(len(k), -1, n) @ m ** np.arange(n - 1, -1, -1)).min(axis=1)
    reps = np.flatnonzero(label == np.arange(len(label)))
    return _readonly(reps), _readonly(np.searchsorted(reps, label))


def fourier_coefficient(mu, v: float, s: complex, radius: int, ring: Ring,
                        grid: int = 8) -> FourierDatum:
    """Midpoint-rule integral of the truncated series at height v against
    e^(-2 pi i (mu, u)) over one fundamental cell of the ring lattice.

    Uses the translation-covariant truncation (see _periodic_series_value)
    so that the integrand is exactly periodic.  The midpoint rule on a
    periodic smooth integrand is spectrally accurate; the error estimate
    compares against the half-resolution grid.  ValueError unless grid
    and radius are integers, grid >= 2 and radius >= 1.

    The series V is the same at every point of an orbit of the grid under
    the unit maps u -> e u e' (_grid_orbits), so it is evaluated once per
    orbit, both grids in one _periodic_series_value call: 23 points for
    the Hurwitz grid 4 and its half grid instead of 272.  Each orbit's
    phases are summed into one weight, sum cos 2 pi (mu, u) / #points:
    u -> -u is in every orbit group, so the sines cancel, and for real s
    the coefficient is real.
    """
    mu = mu.floats() if isinstance(mu, AlgElem) \
        else np.asarray(mu, dtype=float)
    if mu.shape != (ring.dim,):
        raise ValueError(f"mu has {mu.size} coordinates; the {ring.name} "
                         f"ring needs {ring.dim}")
    if not _in_dual_lattice(ring, mu):
        raise ValueError("mu is not in the dual lattice")
    if not math.isfinite(v):
        raise ValueError("v must be finite")
    if not v > 0:
        raise ValueError("v must be positive")
    _require_finite_s(s)
    _require_int("radius", radius)
    _require_int("grid", grid)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if grid < 2:
        raise ValueError("grid must be >= 2: the error estimate needs the half grid")

    def midpoints(m: int) -> np.ndarray:
        ticks = (np.arange(m) + 0.5) / m
        mesh = np.meshgrid(*([ticks] * ring.dim), indexing="ij")
        return np.stack([ax.ravel() for ax in mesh], axis=1) @ lattice_basis(ring)

    grids = [(midpoints(m), *_grid_orbits(ring, int(m))) for m in (grid, grid // 2)]
    vals = _periodic_series_value(ring, s, radius,
                                  np.concatenate([us[reps] for us, reps, _ in grids]), v)
    full, half = (complex(vs @ np.bincount(orbit, np.cos(2 * np.pi * (us @ mu))))
                  / len(us)
                  for (us, _, orbit), vs in zip(grids, np.split(vals, [len(grids[0][1])])))
    return FourierDatum(tuple(mu), float(v), full, abs(full - half))


def _trapezoid(f, a: float, b: float, tol: float):
    """Trapezoid rule for the vectorised f on [a, b]: the step halves from
    16 intervals until two sums agree to tol relative.  Returns (value,
    error), error = |T_h - T_{h/2}|.  For analytic f negligible at a and b
    the error falls exponentially in 1/h (Trefethen & Weideman, SIAM Rev.
    56, 2014), so the relative error of T_{h/2} is near (error/|value|)^2.
    At 2^16 intervals the rule stops and warns with the error it reached.
    """
    y = f(np.linspace(a, b, 17))
    n, h, acc = 16, (b - a) / 16, y.sum() - (y[0] + y[-1]) / 2
    value = h * acc
    for _ in range(12):
        h, n = h / 2, 2 * n
        acc = acc + f(a + h * np.arange(1, n, 2)).sum()
        value, error = h * acc, abs(h * acc - value)
        if error <= tol * abs(value):
            return value, error
    warnings.warn(f"trapezoid rule stopped at {n} intervals with error {error:.3g}"
                  f" (tolerance {tol:g} relative)", RuntimeWarning, stacklevel=3)
    return value, error


def bessel_k(nu: complex, x: float) -> complex:
    """Modified Bessel K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt: half
    the trapezoid rule over [-t_max, t_max] of the even integrand.  Relative
    error below 1e-13 (the rule's tolerance) plus the 1e-20 cut at t_max."""
    if x <= 0:
        raise ValueError("x must be positive")
    nu = complex(nu)
    # truncate where the integrand is below 1e-20 relative to the peak
    t_max = 1.0
    for _ in range(60):
        new = math.asinh((50.0 + abs(nu) * t_max + x) / x)
        if abs(new - t_max) < 1e-12:
            break
        t_max = new
    value, _ = _trapezoid(lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t),
                          -t_max, t_max, 1e-13)
    return complex(value) / 2


# -- Green function ----------------------------------------------------------


def green_function(lam: float, s: float, n: int) -> float:
    """Resolvent kernel G_s(lam) = int_0^1 [xi(1-xi)]^p (xi+lam)^(-s) dxi,
    p = s - (n+1)/2, by tanh-sinh (Takahasi & Mori, Publ. RIMS 9, 1974):
    xi = 1/(1+e^(-2u)), u = (pi/2) sinh t, dxi = pi cosh t xi(1-xi) dt.
    The integrand in t carries [xi(1-xi)]^(p+1), taken in logs from
    e^(-2|u|) so nothing overflows, and falls double-exponentially over
    |t| <= T, T = 6 or, near the wall p -> -1, where (p+1) pi sinh T = 36.
    Relative error: below 1e-13 (the rule's tolerance) plus the dropped
    tails, below 2^(s+|p|+1) min(lam, 1/2)^-(p+1) e^(-36)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not s > (n - 1) / 2:
        raise ValueError("need s > (n-1)/2")
    q = s - (n - 1) / 2  # p + 1
    t_max = max(6.0, math.asinh(36.0 / (q * math.pi)))

    def integrand(t):
        u = np.abs(math.pi / 2 * np.sinh(t))
        e = np.exp(-2 * u)
        xi = np.where(t < 0, e, 1.0) / (1 + e)
        return (math.pi * np.cosh(t) * np.exp(-2 * q * (u + np.log1p(e)))
                * (xi + lam) ** (-s))

    value, _ = _trapezoid(integrand, -t_max, t_max, 1e-13)
    return float(value)


def _point_pair(z: UhpPoint, w: UhpPoint) -> float:
    du = z.u_vector() - w.u_vector()
    return (float(du @ du) + (z.v - w.v) ** 2) / (4.0 * z.v * w.v)


def green_pde_residual(z: UhpPoint, w: UhpPoint, s: float,
                       h: float = 1e-3) -> float:
    """[Lap + s(n-s)] G_s(lam(z, w)) at z != w; zero off the diagonal."""
    n = z.dim
    f = lambda p: green_function(_point_pair(p, w), s, n)
    return laplace_beltrami_numeric(f, z, h) + s * (n - s) * f(z)


# -- critical line -----------------------------------------------------------


def critical_line_diagnostic(r: float, r_prime: float, n: int,
                             windows=(2.0, 4.0, 8.0), samples: int = 4001) -> dict:
    """Overlap of the leading critical-line terms v^(n/2+ir) against
    v^(n/2+ir') in the invariant measure over log-v windows.

    Exploratory output: the overlap grows linearly in the window length
    when r' = r and stays bounded otherwise.
    """
    out = {"r": r, "r_prime": r_prime,
           "eigenvalue": n * n / 4.0 + r * r, "overlaps": []}
    for L in windows:
        vals = np.exp(1j * (r - r_prime) * np.linspace(-L / 2, L / 2, samples))
        overlap = L / (samples - 1) * (vals.sum() - (vals[0] + vals[-1]) / 2)
        out["overlaps"].append({"window": float(L),
                                "overlap": complex(overlap),
                                "magnitude": float(abs(overlap))})
    mags = [o["magnitude"] for o in out["overlaps"]]
    out["linear_growth"] = bool(
        mags[-1] > 0.8 * (windows[-1] / windows[0]) * mags[0])
    return out
