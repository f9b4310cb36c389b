"""Numerical automorphic objects on the generalized upper half plane.

Truncated Eisenstein and Poincare series over the modular pairs (c, d),
the zeta/sigma relation tying them together, Fourier coefficients with
their Bessel profile, the resolvent Green function, and a critical-line
overlap diagnostic.  Everything here is floating point; truncation radii
are exact squared-norm bounds on the lattice shells.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate

from .algebra import AlgElem, right_mult_matrix
from .rings import (
    D4_SIMPLE_ROOTS,
    E8_SIMPLE_ROOTS,
    HURWITZ,
    OCTAVIAN,
    Ring,
    Z,
    _decode2,
    _orbit_units,
    _pair_chunks,
    _unit_orbit_min,
    enumerate_ball,
    hurwitz_left_content,
    octavian_left_content,
    units,
)
from .hyperweyl import build_w_tilde_cd, coset_reps
from .uhp import UhpPoint, act_word

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
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.z.dim != self.ring.dim:
            raise ValueError("point dimension does not match ring")
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


# -- modular pair bookkeeping ------------------------------------------------


@lru_cache(maxsize=32)
def _ball_data(ring: Ring, radius: int):
    """Ball points (doubled int and float coordinates) with squared norms,
    and the unit-orbit representatives of c: the ball indices `reps` of
    c = 0 and of the least unit multiple e c (rings._unit_orbit_min) of
    each c != 0, with their orbit sizes `weight` (1 for c = 0).
    """
    pts2 = enumerate_ball(ring, radius)
    pts = pts2.astype(float) / 2.0
    nrm = (pts * pts).sum(axis=1)
    reps = np.flatnonzero((_unit_orbit_min(ring, pts2) == pts2).all(axis=1))
    weight = np.where(nrm[reps] > 0, float(len(_orbit_units(ring))), 1.0)
    return pts2, pts, nrm, reps, weight


@lru_cache(maxsize=8)
def _coprime_mask(ring: Ring, radius: int) -> np.ndarray:
    """Left coprimality of the pairs (c, d) = (pts[reps[i]], pts[j]) of the
    truncation ball, one row per unit-orbit representative c, as a
    read-only (len(reps), m) boolean array.

    The left content is invariant under (c, d) -> (e c, e d) for the units
    of rings._orbit_units (for the octavians only the central +-1 keep it:
    a non-central unit changes the left content of some pairs), so the
    rows of the other members of an orbit repeat the representative's.
    The mask does not depend on the point z, so it is built once per
    (ring, radius).
    """
    pts2, _, _, reps, _ = _ball_data(ring, radius)
    mask = np.empty((len(reps), len(pts2)), dtype=bool)
    for lo, hi, c2, d2 in _pair_chunks(pts2[reps], pts2):
        if ring is Z:
            ok = np.gcd(c2[:, 0], d2[:, 0]) == 2  # doubled coordinates
        elif ring is HURWITZ:
            ok = hurwitz_left_content(c2, d2) == 4
        else:
            ok = octavian_left_content(c2, d2) == 4
        mask[lo:hi] = ok.reshape(hi - lo, len(pts2))
    mask.flags.writeable = False
    return mask


def _neg_power(x: np.ndarray, s: complex) -> np.ndarray:
    """x^(-s) for positive x: exp(-Re s log x) in real arithmetic, times
    the phase exp(-i Im s log x) only when Im s != 0."""
    log_x = np.log(x)
    mag = np.exp(-s.real * log_x)
    return mag if s.imag == 0 else mag * np.exp(-1j * s.imag * log_x)


def _series_sum(p: SeriesParams, coprime_only: bool = False) -> complex:
    """Shell-major compensated sum of v^s / |cz+d|^(2s).

    The term depends only on |cz + d|, which the units of
    rings._orbit_units leave alone under (c, d) -> (e c, e d) (this needs
    (e c) z = e (c z): associativity, or a central e for the octavians),
    as they do coprimality.  So c runs over one representative per unit
    orbit, times the orbit size.  Representative rows are processed in
    fixed chunks of about 64k pairs; each term is bucketed by its shell key
    max(|c|^2, |d|^2) and the per-shell totals are reduced in increasing
    shell order, so the result is deterministic and the summation order
    matches the truncation geometry.
    """
    ring, z, s = p.ring, p.z, complex(p.s)
    _, pts, nrm, reps, weight = _ball_data(ring, p.radius)
    u, v = z.u_vector(), z.v
    cu = pts[reps] @ right_mult_matrix(u, ring.dim).T  # row i: c_i * u
    shell_id = np.rint(nrm).astype(np.int64)  # squared norms are integers
    n_shell = p.radius + 1
    acc_re = np.zeros(n_shell)
    acc_im = np.zeros(n_shell)
    chunk = max(1, (1 << 16) // len(pts))  # about 64k pairs, cache-sized
    for lo in range(0, len(reps), chunk):
        hi = min(lo + chunk, len(reps))
        rows = reps[lo:hi]
        denom = ((cu[lo:hi] ** 2).sum(axis=1)[:, None] + nrm[None, :]
                 + 2.0 * cu[lo:hi] @ pts.T + (nrm[rows] * v * v)[:, None])
        keep = (nrm[rows][:, None] > 0) | (nrm[None, :] > 0)
        if coprime_only:
            keep &= _coprime_mask(ring, p.radius)[lo:hi]
        # the row's orbit size, 0 for a dropped pair
        vals = (_neg_power(np.where(keep, denom, 1.0), s)
                * (weight[lo:hi, None] * keep)).ravel()
        key = np.maximum(shell_id[rows][:, None], shell_id[None, :]).ravel()
        acc_re += np.bincount(key, weights=vals.real, minlength=n_shell)
        if np.iscomplexobj(vals):
            acc_im += np.bincount(key, weights=vals.imag, minlength=n_shell)
    total = complex(math.fsum(acc_re), math.fsum(acc_im))
    return np.exp(s * np.log(v)) * total


def eisenstein_truncated(p: SeriesParams) -> complex:
    """Unrestricted series sum v^s / |cz+d|^(2s) over all nonzero pairs
    with max(|c|^2, |d|^2) <= radius."""
    return _series_sum(p)


def poincare_truncated(p: SeriesParams) -> complex:
    """Restricted series (1/N) sum over left-coprime pairs, N = #units."""
    return _series_sum(p, coprime_only=True) / len(units(p.ring))


@lru_cache(maxsize=8)
def _coset_class_words(ring: Ring, radius: int):
    """The coset words w~_{c,d} of hyperweyl.coset_reps(ring, radius): one
    per unit-orbit class {(ec, ed)} of the left-coprime pairs inside the
    truncation ball.

    Associative rings only: the orbit reduction uses |(e c) z + e d| =
    |e (cz + d)| = |cz + d|, which needs (e c) z = e (c z) for every unit
    e, and then every orbit has exactly N = #units members.  Over the
    octavians only the central units +-1 satisfy it (rings._orbit_units).
    """
    if ring is OCTAVIAN:
        raise ValueError("octavian pairs do not reduce to unit orbits; "
                         "use the term-level Lemma check instead")
    return tuple(build_w_tilde_cd(ring, c, d) for c, d in coset_reps(ring, radius))


def poincare_via_words(p: SeriesParams) -> complex:
    """Independent Poincare path: sum I_s(w_cd(z)) over the coset words of
    the left-coprime pairs, one per unit orbit (the orbit members share
    |cz+d|, so the 1/N in the pair sum cancels against the orbit size)."""
    s = complex(p.s)
    terms = [act_word(w, p.z).v for w in _coset_class_words(p.ring, p.radius)]
    vals = np.exp(s * np.log(np.array(terms)))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


# -- zeta relation -----------------------------------------------------------


@lru_cache(maxsize=16)
def _sigma_counts(ring: Ring, n_max: int) -> tuple:
    """Shell counts sigma(k) = #{a : |a|^2 = k} by divisor sieve.

    Z: 2 per square; Hurwitz: 24 sum of odd divisors; octavians: 240 sum
    of cubed divisors.  Cross-checked against lattice enumeration in the
    test suite.
    """
    counts = np.zeros(n_max + 1, dtype=np.int64)
    if ring is Z:
        for a in range(1, int(math.isqrt(n_max)) + 1):
            counts[a * a] = 2
    elif ring is HURWITZ:
        for d in range(1, n_max + 1, 2):
            counts[d::d] += 24 * d
    elif ring is OCTAVIAN:
        for d in range(1, n_max + 1):
            counts[d::d] += 240 * d ** 3
    else:
        raise ValueError(f"unknown ring {ring}")
    return tuple(int(c) for c in counts[1:])


def zeta_partial(ring: Ring, s: complex, n_max: int) -> complex:
    """Partial sum of sum_{a != 0} (|a|^2)^(-s) = sum_k sigma(k) k^(-s)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    counts = _sigma_counts(ring, n_max)
    s = complex(s)
    ks = np.arange(1, n_max + 1, dtype=float)
    vals = np.array(counts) * np.exp(-s * np.log(ks))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def zeta_relation_check(ring: Ring, z: UhpPoint, s: complex, radius: int) -> float:
    """Residual |E_R - zeta_R * P_R| of the factorization of the
    unrestricted series into zeta times the coprime-restricted series."""
    p = SeriesParams(ring, s, radius, z)
    e = eisenstein_truncated(p)
    zeta = zeta_partial(ring, s, radius)
    pval = poincare_truncated(p)
    return abs(e - zeta * pval)


# -- Fourier coefficients ----------------------------------------------------


def lattice_basis(ring: Ring) -> np.ndarray:
    """Rows: a Z-basis of the ring lattice (the simple-root basis)."""
    if ring is Z:
        return np.array([[1.0]])
    roots = D4_SIMPLE_ROOTS if ring is HURWITZ else E8_SIMPLE_ROOTS
    return np.array([[float(c) for c in r.coords] for r in roots])


def dual_basis(ring: Ring) -> np.ndarray:
    """Rows: the dual-lattice basis, B* = G^(-1) B with Gram G = B B^T."""
    b = lattice_basis(ring)
    return np.linalg.solve(b @ b.T, b)


def _in_dual_lattice(ring: Ring, mu: np.ndarray) -> bool:
    b = lattice_basis(ring)
    coeffs = mu @ b.T  # inner products with the primal basis
    return bool(np.all(np.abs(coeffs - np.round(coeffs)) < 1e-9))


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


def _periodic_series_value(ring: Ring, s: complex, radius: int,
                           u: np.ndarray, v: float) -> complex:
    """Series value at u + iv under a translation-covariant truncation:
    c over |c|^2 <= radius and, per c, d over the lattice ball
    |cu + d|^2 <= radius centered at -cu.

    The index set is carried to itself by u -> u + o for ring elements o,
    so the value is exactly periodic on the ring lattice.  The fixed-ball
    truncation of eisenstein_truncated is not periodic, and its
    aperiodicity would swamp the exponentially small Fourier modes.

    For a unit e of rings._orbit_units, d -> e d maps the d-ball of c onto
    the d-ball of e c with the same |cu + d| (this needs (e c) u =
    e (c u): associativity, or a central e for the octavians), so c runs
    over one representative per unit orbit, times the orbit size.
    """
    s = complex(s)
    _, cpts, cnrm, reps, weight = _ball_data(ring, radius)
    cpts, cnrm = cpts[reps], cnrm[reps]
    off = enumerate_ball(ring, _margin_norm(radius)).astype(float) / 2.0
    cu = cpts @ right_mult_matrix(u, ring.dim).T
    disp = cu + _nearest_lattice2(ring, -cu).astype(float) / 2.0
    total = 0.0 + 0.0j
    chunk = max(1, (1 << 19) // len(off))
    for lo in range(0, len(cpts), chunk):
        hi = min(lo + chunk, len(cpts))
        cud = disp[lo:hi, None, :] + off[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", cud, cud)
        denom = d2 + cnrm[lo:hi, None] * v * v
        keep = d2 <= radius + 1e-9
        keep &= denom > 1e-12  # drops only the (c, d) = (0, 0) term
        vals = (_neg_power(denom[keep], s)
                * np.broadcast_to(weight[lo:hi, None], keep.shape)[keep])
        total += vals.sum()
    return np.exp(s * np.log(v)) * complex(total)


def fourier_coefficient(mu, v: float, s: complex, radius: int, ring: Ring,
                        grid: int = 8) -> FourierDatum:
    """Midpoint-rule integral of the truncated series at height v against
    e^(-2 pi i (mu, u)) over one fundamental cell of the ring lattice.

    Uses the translation-covariant truncation (see _periodic_series_value)
    so that the integrand is exactly periodic.  The midpoint rule on a
    periodic smooth integrand is spectrally accurate; the error estimate
    compares against the half-resolution grid.
    """
    mu = np.array([float(c) for c in mu.coords]) if isinstance(mu, AlgElem) \
        else np.asarray(mu, dtype=float)
    if mu.shape != (ring.dim,):
        raise ValueError(f"mu has {mu.size} coordinates; the {ring.name} "
                         f"ring needs {ring.dim}")
    if not _in_dual_lattice(ring, mu):
        raise ValueError("mu is not in the dual lattice")
    if not v > 0:
        raise ValueError("v must be positive")

    def estimate(m: int) -> complex:
        b = lattice_basis(ring)
        n = ring.dim
        ticks = (np.arange(m) + 0.5) / m
        mesh = np.meshgrid(*([ticks] * n), indexing="ij")
        t = np.stack([ax.ravel() for ax in mesh], axis=1)
        us = t @ b
        vals = np.array([
            _periodic_series_value(ring, s, radius, uu, v) for uu in us
        ])
        phases = np.exp(-2j * np.pi * (us @ mu))
        return complex((vals * phases).mean())

    full = estimate(grid)
    half = estimate(max(grid // 2, 1))
    return FourierDatum(tuple(mu), float(v), full, abs(full - half))


def bessel_k(nu: complex, x: float) -> complex:
    """Modified Bessel K_nu(x) by quadrature of
    int_0^inf exp(-x cosh t) cosh(nu t) dt with adaptive truncation."""
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
    re, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * np.cosh(nu * t).real,
        0.0, t_max, epsabs=1e-300, epsrel=1e-13, limit=400)
    if nu.imag == 0:
        return complex(re)
    im, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * np.cosh(nu * t).imag,
        0.0, t_max, epsabs=1e-300, epsrel=1e-13, limit=400)
    return complex(re, im)


# -- Green function ----------------------------------------------------------


def green_function(lam: float, s: float, n: int) -> float:
    """Resolvent kernel G_s(lam) = int_0^1 [xi(1-xi)]^(s-(n+1)/2)
    (xi+lam)^(-s) dxi, integrated as xi = sin^2(theta)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not s > (n - 1) / 2:
        raise ValueError("need s > (n-1)/2")
    p = s - (n + 1) / 2

    def integrand(theta):
        sc = math.sin(theta) * math.cos(theta)
        xi = math.sin(theta) ** 2
        return 2.0 * sc ** (2 * p + 1) * (xi + lam) ** (-s)

    val, _ = integrate.quad(integrand, 0.0, math.pi / 2,
                            epsabs=1e-300, epsrel=1e-12, limit=400)
    return val


def _point_pair(z: UhpPoint, w: UhpPoint) -> float:
    du = z.u_vector() - w.u_vector()
    return (float(du @ du) + (z.v - w.v) ** 2) / (4.0 * z.v * w.v)


def green_pde_residual(z: UhpPoint, w: UhpPoint, s: float,
                       h: float = 1e-3) -> float:
    """[Lap + s(n-s)] G_s(lam(z, w)) at z != w; zero off the diagonal."""
    from .uhp import laplace_beltrami_numeric

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
        xi = np.linspace(-L / 2, L / 2, samples)
        vals = np.exp(1j * (r - r_prime) * xi)
        overlap = integrate.trapezoid(vals, xi)
        out["overlaps"].append({"window": float(L),
                                "overlap": complex(overlap),
                                "magnitude": float(abs(overlap))})
    mags = [o["magnitude"] for o in out["overlaps"]]
    out["linear_growth"] = bool(
        mags[-1] > 0.8 * (windows[-1] / windows[0]) * mags[0])
    return out
