"""Truncated Eisenstein series, Fourier modes, Bessel and Green kernels."""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from octavia import autoforms
from octavia.algebra import _mult4, left_mult_matrix, one, right_mult_matrix
from octavia.autoforms import (
    SeriesParams,
    _ball_data,
    _coprime_key_terms,
    _grid_maps,
    _grid_orbits,
    _in_dual_lattice,
    _margin_norm,
    _nearest_lattice2,
    _periodic_series_value,
    _rep_products,
    _series_keys,
    _series_rows,
    _trapezoid,
    bessel_k,
    critical_line_diagnostic,
    dual_basis,
    eisenstein_truncated,
    fourier_coefficient,
    green_function,
    green_pde_residual,
    lattice_basis,
    poincare_truncated,
    poincare_via_words,
    zeta_partial,
    zeta_relation_check,
)
from octavia.hyperweyl import GroupWord, Inv, Rot, Trans
from octavia.rings import (
    HURWITZ,
    OCTAVIAN,
    Z,
    _conj_sign,
    _mult2,
    _null_vectors,
    _primitive_rows,
    enumerate_ball,
    left_content,
    shell_counts,
    units,
)
from octavia.uhp import UhpPoint, act_word, laplace_beltrami_numeric


def _z(dim, u0=0.0, v=1.0):
    u = [0.0] * dim
    u[0] = u0
    return UhpPoint(u, v)


def test_series_params_validation():
    with pytest.raises(ValueError):
        SeriesParams(HURWITZ, 5.0, 0, _z(4))
    with pytest.raises(ValueError):
        SeriesParams(HURWITZ, 5.0, 4, _z(8))
    # a float radius used to pass here and fail inside the kernel
    for radius in (2.5, 2.0):
        with pytest.raises(ValueError, match="radius must be an integer"):
            SeriesParams(HURWITZ, 5.0, radius, _z(4))
    with pytest.raises(ValueError, match="n_max must be an integer"):
        zeta_partial(HURWITZ, 5.0, 2.5)
    p = SeriesParams(HURWITZ, 5.0, np.int64(2), _z(4, 0.1))
    assert eisenstein_truncated(p) == eisenstein_truncated(
        SeriesParams(HURWITZ, 5.0, 2, _z(4, 0.1)))
    with pytest.warns(UserWarning):
        SeriesParams(HURWITZ, 1.5, 4, _z(4))


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, complex(5, math.inf),
                               complex(math.nan, 1)], ids=str)
def test_series_and_fourier_reject_non_finite_s(s):
    # a nan exponent gave a nan value, which the CLI printed as NaN
    for exploratory in (False, True):
        with pytest.raises(ValueError, match="s must be finite"):
            SeriesParams(HURWITZ, s, 2, _z(4), exploratory=exploratory)
    with pytest.raises(ValueError, match="s must be finite"):
        fourier_coefficient([0.0], 1.0, s, 2, Z, grid=2)


def test_eisenstein_exact_invariance():
    for ring, s, radius in ((HURWITZ, 5.0, 4), (OCTAVIAN, 6.0, 2)):
        z = UhpPoint([0.11] * ring.dim, 0.9)
        ref = eisenstein_truncated(SeriesParams(ring, s, radius, z))
        for w in (GroupWord(ring, (Inv(),)),
                  GroupWord(ring, (Rot(units(ring)[3]),)),
                  GroupWord(ring, (Inv(), Rot(units(ring)[7]), Inv()))):
            val = eisenstein_truncated(SeriesParams(ring, s, radius, act_word(w, z)))
            # the truncation set is carried to itself, so the only error is
            # float rounding of the transformed point
            assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))


def test_eigenrelation_of_truncated_series():
    # Lap E_R ~ s(s - n) E_R away from the truncation boundary
    s, n, radius = 5.0, 4, 16
    z = _z(4, 0.0, 1.0)
    f = lambda p: eisenstein_truncated(SeriesParams(HURWITZ, s, radius, p)).real
    lhs = laplace_beltrami_numeric(f, z, h=1e-3)
    rhs = s * (s - n) * f(z)
    assert abs(lhs - rhs) < 1e-4 * abs(rhs)


def test_zeta_partial_integer_ring():
    # sum_{a != 0} |a|^(-2s) over Z is 2 zeta(2s)
    for s in (2.0, 3.5):
        assert zeta_partial(Z, s, 10000).real == pytest.approx(
            2 * sps.zeta(2 * s), rel=1e-5)


def test_hurwitz_shell_sigma_formula():
    counts = shell_counts(HURWITZ, 20)
    for k in range(1, 21):
        odd = k
        while odd % 2 == 0:
            odd //= 2
        divsum = sum(d for d in range(1, odd + 1) if odd % d == 0)
        assert counts[k - 1] == 24 * divsum


def test_zeta_relation_monotone():
    z = _z(4, 0.0, 1.0)
    res = [zeta_relation_check(HURWITZ, z, 5.0, r) for r in (4, 9, 16)]
    assert res[0] > res[1] > res[2] > 0


def test_poincare_two_evaluation_paths_agree():
    for ring, radius in ((Z, 9), (HURWITZ, 3)):
        z = UhpPoint([0.2] * ring.dim, 1.1)
        p = SeriesParams(ring, ring.dim + 1.0, radius, z)
        a = poincare_truncated(p)
        b = poincare_via_words(p)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


# -- the lattice-class reduction against the full pair ball --------------


def _full_mask_rows(ring, c2, d2):
    """Left coprimality of every pair (c2[i], d2[j]), computed directly."""
    c = np.repeat(c2, len(d2), axis=0)
    d = np.tile(d2, (len(c2), 1))
    if ring is Z:
        ok = np.gcd(c[:, 0], d[:, 0]) == 2
    else:
        ok = left_content(ring, c, d) == 4
    return ok.reshape(len(c2), len(d2))


def _full_pair_series(p, coprime_only=False):
    """Oracle: every pair (c, d) of the ball, one complex power per term,
    per-shell fsum; poincare divides by the unit count."""
    pts2 = enumerate_ball(p.ring, p.radius)
    pts = pts2 / 2.0
    nrm = (pts * pts).sum(axis=1)
    u, v, s = p.z.u_vector(), p.z.v, complex(p.s)
    cu = pts @ right_mult_matrix(u, p.ring.dim).T
    shells = {}
    for lo in range(0, len(pts), 64):
        rows = slice(lo, lo + 64)
        w = cu[rows, None, :] + pts[None, :, :]
        denom = (w * w).sum(axis=2) + (nrm[rows] * v * v)[:, None]
        keep = (nrm[rows, None] > 0) | (nrm[None, :] > 0)
        if coprime_only:
            keep &= _full_mask_rows(p.ring, pts2[rows], pts2)
        vals = np.exp(-s * np.log(denom[keep]))
        key = np.maximum(nrm[rows, None], nrm[None, :])[keep]
        for k in np.unique(key):
            shells.setdefault(k, []).append(vals[key == k])
    total = v ** s * sum(complex(math.fsum(x.real), math.fsum(x.imag))
                         for x in (np.concatenate(shells[k]) for k in sorted(shells)))
    return total / len(units(p.ring)) if coprime_only else total


@pytest.mark.parametrize("s", [5.0, 5.0 + 1.5j], ids=["real", "complex"])
@pytest.mark.parametrize("ring, radius", [(Z, 9), (HURWITZ, 4), (OCTAVIAN, 1)],
                         ids=["z", "hurwitz", "octavian"])
def test_series_match_full_pair_oracle(ring, radius, s):
    # fails if a class size or the class partition is wrong
    rng = np.random.default_rng(7)
    z = UhpPoint(rng.uniform(-0.5, 0.5, ring.dim), 1.05)
    p = SeriesParams(ring, s, radius, z)
    for f, coprime in ((eisenstein_truncated, False), (poincare_truncated, True)):
        ref = _full_pair_series(p, coprime)
        assert abs(f(p) - ref) <= 1e-12 * abs(ref)


def test_octavian_series_match_full_pair_oracle_radius_2():
    # at radius 1 the units form one lattice class (c^-bar O = O), so
    # only radius 2 sees classes of 16 beside it
    z = UhpPoint(np.random.default_rng(8).uniform(-0.5, 0.5, 8), 0.95)
    p = SeriesParams(OCTAVIAN, 5.0, 2, z)
    ref = _full_pair_series(p)
    assert abs(eisenstein_truncated(p) - ref) <= 1e-12 * abs(ref)


@pytest.mark.heavy
def test_octavian_poincare_radius_2_matches_full_pair_oracle():
    # the coprime keys against one Euclid run on each of the 2401^2 pairs
    z = UhpPoint(np.random.default_rng(8).uniform(-0.5, 0.5, 8), 0.95)
    p = SeriesParams(OCTAVIAN, 5.0, 2, z)
    ref = _full_pair_series(p, True)
    assert abs(poincare_truncated(p) - ref) <= 1e-12 * abs(ref)


@lru_cache(maxsize=8)
def _euclid_class_mask(ring, radius):
    """Left coprimality of every class row c against the ball d, by one
    Euclid run per pair (_full_mask_rows), 16 rows at a time."""
    pts2, _, _, reps, _, _ = _ball_data(ring, radius)
    return np.concatenate([_full_mask_rows(ring, pts2[reps[lo:lo + 16]], pts2)
                           for lo in range(0, len(reps), 16)])


def _primitive_class_mask(ring, radius):
    """The class-row mask of _euclid_class_mask by primitivity
    (rings._primitive_rows) in batches of about 16k pairs, for radii
    where a Euclid run per pair is too slow."""
    pts2, _, _, reps, _, _ = _ball_data(ring, radius)
    m = len(pts2)
    chunk = max(1, (1 << 14) // m)
    rows = []
    for lo in range(0, len(reps), chunk):
        c2 = np.repeat(pts2[reps[lo:lo + chunk]], m, axis=0)
        d2 = np.tile(pts2, (len(c2) // m, 1))
        rows.append(_primitive_rows(
            ring, (c2 * c2).sum(axis=1) >> 2, (d2 * d2).sum(axis=1) >> 2,
            lambda live: _mult2(c2[live] * _conj_sign(ring.dim), d2[live])).reshape(-1, m))
    return np.concatenate(rows)


def _row_by_row_series(p, coprime_only=False, mask=None):
    """Oracle on the reduced pair set: one class row at a time, with its
    class size and, for the Poincare series, its row of the class-row
    mask (by default _euclid_class_mask), per-shell fsum."""
    _, pts, nrm, reps, weight, _ = _ball_data(p.ring, p.radius)
    if coprime_only and mask is None:
        mask = _euclid_class_mask(p.ring, p.radius)
    u, v, s = p.z.u_vector(), p.z.v, complex(p.s)
    rmat = right_mult_matrix(u, p.ring.dim)
    shells = {}
    for i, r in enumerate(reps):
        w = rmat @ pts[r] + pts
        denom = (w * w).sum(axis=1) + nrm[r] * v * v
        keep = (nrm > 0) | (nrm[r] > 0)
        if coprime_only:
            keep &= mask[i]
        vals = weight[i] * np.exp(-s * np.log(denom[keep]))
        key = np.maximum(nrm[r], nrm[keep])
        for k in np.unique(key):
            shells.setdefault(k, []).append(vals[key == k])
    total = v ** s * sum(complex(math.fsum(x.real), math.fsum(x.imag))
                         for x in (np.concatenate(shells[k]) for k in sorted(shells)))
    return total / len(units(p.ring)) if coprime_only else total


@pytest.mark.parametrize("s", [5.0, 5.0 + 1.5j], ids=["real", "complex"])
def test_series_match_row_by_row_oracle_across_chunks(s):
    # Hurwitz R = 16: 109 representative rows in 5 chunks of 25, so the
    # class-row Eisenstein kernel crosses chunks; the shell routing only
    # orders the summation, so values see it to rounding alone.  The
    # Poincare series sums the coprime keys against Euclid runs per pair
    _, pts, _, reps, _, _ = _ball_data(HURWITZ, 16)
    assert len(reps) == 109 and (1 << 16) // len(pts) == 25
    z = UhpPoint(np.random.default_rng(9).uniform(-0.5, 0.5, 4), 0.9)
    p = SeriesParams(HURWITZ, s, 16, z)
    for f, coprime in ((eisenstein_truncated, False), (poincare_truncated, True)):
        ref = _row_by_row_series(p, coprime)
        assert abs(f(p) - ref) <= 1e-12 * abs(ref)


def _kernels_agree(ring, radius, s, coprime_only, mask=None):
    """Eisenstein: the class-row kernel against the key kernel.  Poincare:
    the library (keys) against the class rows with a coprime mask, by
    default one Euclid run per pair (_row_by_row_series)."""
    z = UhpPoint(np.random.default_rng(10).uniform(-0.5, 0.5, ring.dim), 0.9)
    p = SeriesParams(ring, s, radius, z)
    if coprime_only:
        ref, got = _row_by_row_series(p, True, mask), poincare_truncated(p)
    else:
        ref, got = _series_rows(p), _series_keys(p)
    return abs(ref - got) <= 1e-12 * abs(ref)


# octavian Poincare at radius 3 against Euclid runs on 11,455,976 class-row
# pairs is too slow: test_series_kernels_agree_octavian_radius_3 has it
@pytest.mark.parametrize("ring, radius, s, coprime_only", [
    pytest.param(ring, radius, s, coprime_only, id=f"{name}-{radius}-{s_id}-{kind}")
    for ring, name, radii in ((Z, "z", (9,)), (HURWITZ, "hurwitz", (4, 9, 16)),
                              (OCTAVIAN, "octavian", (1, 2, 3)))
    for radius in radii
    for s, s_id in ((5.0, "real"), (5.0 + 1.5j, "complex"))
    for coprime_only, kind in ((False, "eisenstein"), (True, "poincare"))
    if not (ring is OCTAVIAN and radius == 3 and coprime_only)])
def test_series_kernels_agree(ring, radius, s, coprime_only):
    # the class-row Eisenstein kernel (associative rings) and the
    # coprime-key kernel (octavians, whose Eisenstein series is the
    # sigma-convolution of the coprime one) are each other's oracle, on
    # every ring; the key Poincare series, every ring's, has a Euclid oracle
    assert _kernels_agree(ring, radius, s, coprime_only)


@pytest.mark.heavy
@pytest.mark.parametrize("s", [5.0, 5.0 + 1.5j], ids=["real", "complex"])
def test_series_kernels_agree_octavian_radius_3(s):
    # Poincare on the 337,682 primitive null vectors against 11,455,976
    # class-row pairs, flagged in the test by primitivity
    # (_primitive_class_mask) since a Euclid run each is slow.  The
    # 338,163 distinct keys with c != 0, and the 3 with c = 0, are the
    # multiples g v, g <= 3 // max(k, l), of the primitive vectors v
    # (test_coprimality_is_a_function_of_the_key)
    rows = _null_vectors(OCTAVIAN, 3)
    assert len(rows) == 337682
    assert (3 // np.maximum(rows[:, 8], rows[:, 9])).sum() == 338163 + 3
    assert _kernels_agree(OCTAVIAN, 3, s, True, _primitive_class_mask(OCTAVIAN, 3))


@pytest.mark.parametrize("s", [5.0, 5.0 + 1.5j], ids=["real", "complex"])
@pytest.mark.parametrize("ring, radius", [(Z, 64), (HURWITZ, 9)], ids=["z-64", "hurwitz-9"])
def test_eisenstein_is_the_sigma_convolution_of_poincare(ring, radius, s):
    # E_R = sum_g sigma(g) g^-s P_{R // g} (Krieg, LNM 1143), exactly for
    # these truncations: every nonzero pair is (ac, ad) with (c, d) left
    # coprime and |a|^2 = g in exactly #units ways.  The two sides come
    # from the two kernels: E from the class rows, and one P per radius
    # R // g from the coprime keys
    z = UhpPoint(np.random.default_rng(12).uniform(-0.5, 0.5, ring.dim), 0.95)
    e = _series_rows(SeriesParams(ring, s, radius, z))
    terms = [n * g ** -complex(s) * poincare_truncated(SeriesParams(ring, s, radius // g, z))
             for g, n in enumerate(shell_counts(ring, radius), 1) if n]
    conv = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    assert abs(conv - e) <= 1e-13 * abs(e)


def test_series_sum_takes_keys_for_every_octavian_radius(monkeypatch):
    # Eisenstein sums the class rows over Z and the Hurwitz ring and the
    # coprime keys over the octavians; Poincare sums the keys in every ring
    picked = []
    for name in ("_series_keys", "_series_rows"):
        monkeypatch.setattr(autoforms, name, lambda p, coprime_only=False, name=name:
                            picked.append((p.ring, p.radius, name, coprime_only)) or 1.0)
    cases = ((OCTAVIAN, 1), (OCTAVIAN, 2), (OCTAVIAN, 3), (OCTAVIAN, 4), (HURWITZ, 9), (Z, 9))
    for f in (eisenstein_truncated, poincare_truncated):
        for ring, radius in cases:
            f(SeriesParams(ring, 12.0, radius, _z(ring.dim)))
    assert picked == ([(ring, radius, "_series_keys", False) for ring, radius in cases[:4]]
                      + [(HURWITZ, 9, "_series_rows", False), (Z, 9, "_series_rows", False)]
                      + [(ring, radius, "_series_keys", True) for ring, radius in cases])
    monkeypatch.undo()
    # and a cold octavian E and P and a cold Hurwitz P read the coprime-key
    # table alone: no ball or d side of the class rows
    seen = []
    for name in ("_ball_data", "_d_side"):
        cache = getattr(autoforms, name)
        monkeypatch.setattr(autoforms, name, lambda ring, radius, name=name, cache=cache:
                            seen.append((name, ring)) or cache(ring, radius))
    monkeypatch.setattr(autoforms, "_coprime_key_terms",
                        lru_cache(maxsize=4)(autoforms._coprime_key_terms.__wrapped__))
    p = SeriesParams(OCTAVIAN, 5.0, 1, _z(8, 0.1))
    assert eisenstein_truncated(p) != 0 and poincare_truncated(p) != 0
    assert autoforms._coprime_key_terms.cache_info().misses == 1
    p = SeriesParams(HURWITZ, 5.0, 2, _z(4, 0.1))
    assert poincare_truncated(p) != 0
    assert autoforms._coprime_key_terms.cache_info().misses == 2
    assert seen == []
    eisenstein_truncated(p)
    assert {name for name, _ in seen} == {"_ball_data", "_d_side"}


@pytest.mark.parametrize("ring, radius", [(HURWITZ, 4), (OCTAVIAN, 2)],
                         ids=["hurwitz-4", "octavian-2"])
def test_coprimality_is_a_function_of_the_key(ring, radius, pair_table):
    # the fact _coprime_key_terms rests on: the left coprimality of (d, c)
    # is constant on every key (|c|^2, c^-bar d, |d|^2) of the brute-force
    # pair table, one Euclid row per pair, and its left-coprime keys are
    # the table's terms, each the key of #units pairs
    keys, mult, coprime = pair_table(ring, radius)
    assert np.all((coprime == 0) | (coprime == mult))
    flag = coprime > 0
    n = ring.dim
    cols = _coprime_key_terms(ring, radius)[0]
    got = cols[[n, n + 1, *range(n)]].T.astype(np.int64)  # as (k, l, 2x)
    assert np.array_equal(got[np.lexsort(got.T[::-1])], keys[flag])
    assert np.all(mult[flag] == len(units(ring)))
    # every key is g v for the primitive v = key / g, g = gcd(k, l,
    # content of c^-bar d), with sigma(g) pairs: the sigma-convolution
    # E = zeta * P at the level of keys
    coords = keys[:, 2:] @ np.linalg.inv(np.array(ring.basis2))
    g = np.gcd.reduce(np.column_stack([keys[:, :2], np.rint(coords)]).astype(np.int64), axis=1)
    assert np.allclose(coords, np.rint(coords))
    assert np.array_equal(mult, np.array([0] + shell_counts(ring, radius * radius))[g])
    primitive = set(map(bytes, keys[flag]))
    assert all(bytes(key // d) in primitive for key, d in zip(keys, g))


def test_octavian_key_counts(pair_table):
    # the distinct keys with c != 0 are 241 and 22,082 at radius 1 and 2
    # (338,163 at 3); for |c|^2 = 2 the c^-bar d are exactly the octavians
    # of norm 0, 2 and 4.  c = 0 adds one key per norm of d.  The primitive
    # ones, the coset classes, are 242 and 21,842
    for radius, count, primitive in ((1, 241, 242), (2, 22082, 21842)):
        assert len(pair_table(OCTAVIAN, radius)[0]) == count + radius
        assert len(_null_vectors(OCTAVIAN, radius)) == primitive
    keys = pair_table(OCTAVIAN, 2)[0]
    y2 = keys[keys[:, 0] == 2, 2:]
    ball = enumerate_ball(OCTAVIAN, 4)
    even = ball[(ball * ball).sum(axis=1) % 8 == 0]
    assert len(y2) == len(even) == 19681
    assert np.array_equal(y2[np.lexsort(y2.T[::-1])], even[np.lexsort(even.T[::-1])])


def _ball_index(pts2):
    return {tuple(r): i for i, r in enumerate(pts2.tolist())}


def _unit_perm(pts2, e):
    """perm[i]: the ball index of e * pts[i]."""
    index = _ball_index(pts2)
    e2 = np.broadcast_to(np.array(e.coords2), pts2.shape)
    return np.array([index[tuple(r)] for r in _mult2(e2, pts2).tolist()])


def test_full_mask_invariant_under_orbit_units():
    pts2 = enumerate_ball(HURWITZ, 4)
    full = _full_mask_rows(HURWITZ, pts2, pts2)
    for e in units(HURWITZ):
        perm = _unit_perm(pts2, e)
        assert np.array_equal(full[perm][:, perm], full)
    # octavians, -1 only: rows of norm-2 c and their negatives, every d
    pts2 = enumerate_ball(OCTAVIAN, 2)
    rows = np.arange(241, 2401, 97)
    perm = _unit_perm(pts2, -units(OCTAVIAN)[0])
    full = _full_mask_rows(OCTAVIAN, pts2[rows], pts2)
    neg = _full_mask_rows(OCTAVIAN, pts2[perm[rows]], pts2)
    assert np.array_equal(neg[:, perm], full)


def test_noncentral_octavian_unit_breaks_mask_invariance():
    # why the octavian pair orbits are {(c, d), (-c, -d)}: (e c, e d) need
    # not share the left coprimality of (c, d) when e is not central
    pts2 = enumerate_ball(OCTAVIAN, 2)
    rows = np.arange(241, 2401, 97)
    e = next(x for x in units(OCTAVIAN) if abs(x.coords[0]) != 1)
    perm = _unit_perm(pts2, e)
    full = _full_mask_rows(OCTAVIAN, pts2[rows], pts2)
    moved = _full_mask_rows(OCTAVIAN, pts2[perm[rows]], pts2)
    assert not np.array_equal(moved[:, perm], full)


@pytest.mark.parametrize("ring, radius", [(Z, 9), (HURWITZ, 4), (OCTAVIAN, 1)],
                         ids=["z", "hurwitz", "octavian"])
def test_reduced_mask_is_representative_rows(ring, radius):
    pts2, _, _, reps, weight, _ = _ball_data(ring, radius)
    # c = 0 alone, and the classes cover the ball once
    assert reps[0] == 0 and weight[0] == 1
    assert weight.sum() == len(pts2)


def _class_members(ring, pts2, i):
    """Ball indices of the points c' with c'^-bar O = c^-bar O, c =
    pts2[i], found exactly: such c' is e c for a unit e (c^-bar O holds
    c'^-bar and the other way round, so the two differ by a unit factor),
    and its minimal vectors c'^-bar e' must be those of c."""
    index = {tuple(r): j for j, r in enumerate(pts2.tolist())}
    e2 = enumerate_ball(ring, 1)[1:]

    def minimal(c2):
        cbar = np.broadcast_to(c2 * _conj_sign(ring.dim), e2.shape)
        return {tuple(r) for r in _mult2(cbar, e2).tolist()}

    c2 = pts2[i]
    cands = {tuple(r) for r in _mult2(e2, np.broadcast_to(c2, e2.shape)).tolist()}
    ref = minimal(c2)
    return sorted(index[x] for x in cands if minimal(np.array(x)) == ref)


def _member_image(c2, c2_member, d2, n):
    """Doubled coordinates of d' = c'(c^-1 d) = c'(c^-bar d) / |c|^2 for
    every row d2, n = |c|^2; exact, and it must land on the ring."""
    y2 = _mult2(np.broadcast_to(c2 * _conj_sign(len(c2)), d2.shape), d2)  # 2 c^-bar d
    z2 = _mult2(np.broadcast_to(c2_member, d2.shape), y2)  # 2 c'(c^-bar d)
    assert not (z2 % n).any()
    return z2 // n


def _dist1024(c2, d2, u16):
    """1024 |cu + d|^2 per row d2, exactly: 32 (cu + d) = (2c)(16u) +
    16 (2d) on plain integer products."""
    w = _mult4(np.broadcast_to(c2, d2.shape), np.broadcast_to(u16, d2.shape))
    return ((w + 16 * d2) ** 2).sum(axis=1)


@pytest.mark.parametrize("radius, sampled", [
    (1, [(240, 0)]), (2, [(16, 0), (16, 67), (16, -1)]),
    (3, [(16, 0), (6, 0), (6, -1)])], ids=["1", "2", "3"])
def test_octavian_class_members_share_the_row(radius, sampled):
    # d <-> d' = c'(c^-1 d) carries the row of c onto the row of every
    # member c' of its class: the coprime mask and |cu + d|^2, both exact
    # (u on a 1/16 grid), and it keeps |d|^2, so the shell sums agree.
    # sampled: (class size, which class of that size)
    pts2, _, _, reps, weight, _ = _ball_data(OCTAVIAN, radius)
    index = {tuple(r): j for j, r in enumerate(pts2.tolist())}
    u16 = np.random.default_rng(radius).integers(-24, 25, 8)
    n4 = (pts2 * pts2).sum(axis=1)
    by_size = {}
    for i, w in zip(reps.tolist(), weight.tolist()):
        by_size.setdefault(w, []).append(i)
    for size, k in sampled:
        i = by_size[size][k]
        members = _class_members(OCTAVIAN, pts2, i)
        assert members[0] == i and len(members) == size
        n = int(n4[i]) // 4
        full = _full_mask_rows(OCTAVIAN, pts2[members], pts2)
        ref = _dist1024(pts2[i], pts2, u16)
        for row, j in zip(full, members):
            image = _member_image(pts2[i], pts2[j], pts2, n)
            perm = np.array([index[tuple(r)] for r in image.tolist()])
            assert np.array_equal(np.sort(perm), np.arange(len(pts2)))
            assert np.array_equal(n4[perm], n4)
            assert np.array_equal(row[perm], full[0])
            assert np.array_equal(_dist1024(pts2[j], image, u16), ref)


def test_dual_basis_is_dual():
    for ring in (Z, HURWITZ, OCTAVIAN):
        b = lattice_basis(ring)
        assert np.allclose(dual_basis(ring) @ b.T, np.eye(ring.dim))


def test_dual_lattice_membership_is_exact():
    for mu in ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (2, 0, 0, 0)):
        assert _in_dual_lattice(HURWITZ, np.array(mu, dtype=float))
    for ring in (Z, HURWITZ, OCTAVIAN):
        dual = np.round(2 * dual_basis(ring)) / 2
        assert np.allclose(dual, dual_basis(ring))
        combos = np.random.default_rng(13).integers(-3, 4, (20, ring.dim)) @ dual
        for mu in np.concatenate([dual, combos]):
            assert _in_dual_lattice(ring, mu)
            # a float tolerance would take this near miss
            assert not _in_dual_lattice(ring, mu + 1e-10 * np.eye(ring.dim)[0])


def test_periodic_truncation_is_periodic():
    # periodic on the ring lattice, and even: fourier_coefficient evaluates
    # one point per orbit of each midpoint grid under the unit maps
    # u -> e u e', whose orbit groups all hold u -> -u
    u = np.array([0.37, -0.21, 0.05, 0.6])
    shift = np.array([1.0, 1.0, 0.0, 0.0])
    a, b = _periodic_series_value(HURWITZ, 5.0, 9, np.stack([u, u + shift]), 0.7)
    assert abs(a - b) < 1e-12 * abs(a)
    rng = np.random.default_rng(14)
    for ring, radius in ((Z, 9), (HURWITZ, 9), (HURWITZ, 1), (OCTAVIAN, 1)):
        for s in (5.0, 5.0 + 1.5j):
            u = rng.uniform(-1.5, 1.5, ring.dim)
            shift = rng.integers(-2, 3, ring.dim) @ lattice_basis(ring)
            vals = _periodic_series_value(ring, s, radius,
                                          np.stack([u, u + shift, -u]), 0.7)
            assert np.abs(vals[1:] - vals[0]).max() < 1e-12 * abs(vals[0])


def _per_point_value(ring, s, radius, u, v):
    """Oracle: the periodic series value at one point u + iv, summed over
    every c of the ball (no class reduction), each over its d-ball
    centered at -cu, one point at a time."""
    s = complex(s)
    cpts = enumerate_ball(ring, radius) / 2.0
    cnrm = (cpts * cpts).sum(axis=1)
    off = enumerate_ball(ring, _margin_norm(radius)) / 2.0
    cu = cpts @ right_mult_matrix(u, ring.dim).T
    disp = cu + _nearest_lattice2(ring, -cu) / 2.0
    total, rows = 0j, max(1, (1 << 17) // len(off))
    for lo in range(0, len(cpts), rows):
        cud = disp[lo:lo + rows, None, :] + off[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", cud, cud)
        denom = d2 + cnrm[lo:lo + rows, None] * v * v
        keep = (d2 <= radius + 1e-9) & (denom > 1e-12)
        total += complex(np.exp(-s * np.log(denom[keep])).sum())
    return v ** s * total


@pytest.mark.parametrize("s", [5.0, 5.0 + 1.5j], ids=["real", "complex"])
@pytest.mark.parametrize("ring, radius", [(Z, 9), (HURWITZ, 4), (HURWITZ, 9),
                                          (OCTAVIAN, 1)],
                         ids=["z-9", "hurwitz-4", "hurwitz-9", "octavian-1"])
def test_periodic_values_match_per_point_oracle(ring, radius, s):
    us = np.random.default_rng(11).uniform(-1.5, 1.5, (5, ring.dim))
    got = _periodic_series_value(ring, s, radius, us, 0.8)
    for u, g in zip(us, got):
        ref = _per_point_value(ring, s, radius, u, 0.8)
        assert abs(g - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=["z", "hurwitz", "octavian"])
def test_rep_products_are_right_multiplications(ring):
    # a wrong contraction of the structure constants can still give the
    # right periodic values when the truncation is symmetric; the rows can't
    _, pts, _, reps, _, _ = _ball_data(ring, 4 if ring is not OCTAVIAN else 1)
    us = np.random.default_rng(12).uniform(-1.5, 1.5, (6, ring.dim))
    got = _rep_products(pts[reps], us)
    for u, rows in zip(us, got):
        ref = pts[reps] @ right_mult_matrix(u, ring.dim).T
        assert np.abs(rows - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def _midpoints(ring, m):
    """The midpoint grid of m ticks per lattice axis, ravelled in
    indexing="ij" order."""
    ticks = (np.arange(m) + 0.5) / m
    mesh = np.meshgrid(*([ticks] * ring.dim), indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=1) @ lattice_basis(ring)


def _per_point_fourier(mu, v, s, radius, ring, grid):
    mu = np.asarray(mu, dtype=float)

    def estimate(m):
        us = _midpoints(ring, m)
        vals = np.array([_per_point_value(ring, s, radius, u, v) for u in us])
        return complex((vals * np.exp(-2j * np.pi * (us @ mu))).mean())

    full, half = estimate(grid), estimate(max(grid // 2, 1))
    return full, abs(full - half)


@pytest.mark.parametrize("ring, mu, radius, grid", [
    pytest.param(HURWITZ, (0, 0, 0, 0), 4, 4, id="zero"),
    pytest.param(HURWITZ, (1, 1, 0, 0), 4, 4, id="11"),
    # odd grids: the half grid of 3 is one point, its own mirror image
    pytest.param(HURWITZ, (1, 1, 0, 0), 4, 3, id="hurwitz-grid-3"),
    pytest.param(Z, (1,), 9, 7, id="z-grid-7"),
    pytest.param(Z, (2,), 9, 6, id="z-grid-6"),
])
def test_fourier_matches_per_point_oracle(ring, mu, radius, grid):
    got = fourier_coefficient(list(mu), 0.5, 5.0, radius, ring, grid=grid)
    coef, err = _per_point_fourier(mu, 0.5, 5.0, radius, ring, grid)
    assert abs(got.coefficient - coef) <= 1e-12 * abs(coef)
    assert abs(got.error_estimate - err) <= 1e-12 * err


def _unit_pairs(ring):
    """Every pair (e, e') of the maps u -> e u e': all units of an
    associative ring, the central units +-1 of the octavians."""
    us = units(ring) if ring.associative else (-one(ring.dim), one(ring.dim))
    return [(e, f) for e in us for f in us]


def _grid_images(ring, m, e, f):
    """Oracle: the grid index of e u f for each point u of the grid of m
    ticks, taken in the algebra and reduced modulo the lattice, or None
    when some image is no grid point."""
    us = _midpoints(ring, m)
    img = (us @ left_mult_matrix(e.floats(), ring.dim).T
           @ right_mult_matrix(f.floats(), ring.dim).T)
    t = img @ np.linalg.inv(lattice_basis(ring)) * m - 0.5
    k = np.rint(t)
    if np.abs(t - k).max() > 1e-9:
        return None
    return (k.astype(np.int64) % m) @ m ** np.arange(ring.dim - 1, -1, -1)


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=["z", "hurwitz", "octavian"])
def test_grid_maps_are_the_unit_maps_that_fix_the_grid(ring):
    basis = lattice_basis(ring)
    kept = {tuple(mat.ravel()) for mat in _grid_maps(ring)[0]}
    fixing = set()
    for e, f in _unit_pairs(ring):
        moves = [_grid_images(ring, m, e, f) for m in (2, 3)]
        # a map fixes every grid or none
        assert (moves[0] is None) == (moves[1] is None)
        if moves[0] is not None:
            assert all(np.array_equal(np.sort(idx), np.arange(len(idx))) for idx in moves)
            mat = (basis @ left_mult_matrix(e.floats(), ring.dim).T
                   @ right_mult_matrix(f.floats(), ring.dim).T @ np.linalg.inv(basis))
            fixing.add(tuple(np.rint(mat).astype(np.int64).ravel()))
    # every kept map carries the grid onto itself, and no grid-fixing
    # unit map is missing
    assert kept == fixing


@pytest.mark.parametrize("ring, m, count", [
    (Z, 2, 1), (Z, 3, 2), (Z, 7, 4),
    (HURWITZ, 2, 3), (HURWITZ, 3, 9), (HURWITZ, 4, 20), (HURWITZ, 5, 41),
    (OCTAVIAN, 2, 128),
], ids=lambda x: getattr(x, "name", x))
def test_grid_orbits_are_the_unit_map_orbits(ring, m, count):
    reps, orbit = _grid_orbits(ring, m)
    assert len(reps) == count
    moves = [idx for e, f in _unit_pairs(ring)
             if (idx := _grid_images(ring, m, e, f)) is not None]
    # the grid-fixing maps form a group, so each point's least image is
    # the least point of its orbit
    least = np.min(moves, axis=0)
    assert np.array_equal(reps, np.flatnonzero(least == np.arange(m ** ring.dim)))
    assert np.array_equal(reps[orbit], least)


@pytest.mark.parametrize("m", [3, 4])
def test_grid_orbit_members_share_the_series_value(m):
    s, radius, v = 5.0 + 1.5j, 4, 0.5
    us = _midpoints(HURWITZ, m)
    reps, orbit = _grid_orbits(HURWITZ, m)
    vals = _periodic_series_value(HURWITZ, s, radius, us[reps], v)
    for u, o in zip(us, orbit):
        ref = _per_point_value(HURWITZ, s, radius, u, v)
        assert abs(vals[o] - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("ring, mu, radius, grid", [
    pytest.param(Z, (1,), 9, 7, id="z"),
    pytest.param(HURWITZ, (1, 1, 0, 0), 4, 4, id="hurwitz-11"),
    pytest.param(HURWITZ, (0, 0, 0, 0), 4, 3, id="hurwitz-zero"),
    pytest.param(OCTAVIAN, (0,) * 8, 1, 2, id="octavian"),
])
def test_fourier_coefficient_is_real_for_real_s(ring, mu, radius, grid):
    # each orbit's phases sum to a real weight, since u -> -u is in every
    # orbit group, and V is real for real s
    d = fourier_coefficient(list(mu), 0.5, 5.0, radius, ring, grid=grid)
    assert d.coefficient.imag == 0.0 and d.coefficient.real != 0.0


def test_fourier_rejects_non_dual_mu():
    with pytest.raises(ValueError):
        fourier_coefficient([0.3, 0, 0, 0], 1.0, 5.0, 4, HURWITZ)
    with pytest.raises(ValueError):
        fourier_coefficient([1 + 1e-10, 1, 0, 0], 1.0, 5.0, 4, HURWITZ)
    with pytest.raises(ValueError):
        fourier_coefficient([1, 0, 0, 0], -1.0, 5.0, 4, HURWITZ)


@pytest.mark.parametrize("v", [math.inf, math.nan])
def test_fourier_rejects_non_finite_height(v):
    with pytest.raises(ValueError, match="v must be finite"):
        fourier_coefficient([0], v, 5.0, 4, Z, grid=4)


@pytest.mark.parametrize("radius, grid", [(4, 0), (4, 1), (0, 4), (-1, 4),
                                          (4, 2.5), (4, 4.0), (4.5, 4), (4.0, 4)])
def test_fourier_rejects_small_grid_and_radius(radius, grid):
    # grid 0 gave NaN, grid 1 an error estimate of 0 (its half grid is the
    # full grid), radius 0 a coefficient of 0; grid 2.5 ticked at 0.2,
    # 0.6 and 1.0, which are not midpoints, and returned a wrong value
    with pytest.raises(ValueError):
        fourier_coefficient([0], 1.0, 5.0, radius, Z, grid=grid)


def test_fourier_takes_integer_arguments_only():
    with pytest.raises(ValueError, match="grid must be an integer"):
        fourier_coefficient([0] * 4, 0.5, 5.0, 2, HURWITZ, grid=2.5)
    with pytest.raises(ValueError, match="radius must be an integer"):
        fourier_coefficient([0] * 4, 0.5, 5.0, 2.0, HURWITZ, grid=2)
    assert fourier_coefficient([0] * 4, 0.5, 5.0, np.int64(2), HURWITZ,
                               grid=np.int32(2)) \
        == fourier_coefficient([0] * 4, 0.5, 5.0, 2, HURWITZ, grid=2)


def test_zero_mode_leading_exponent():
    s = 5.0
    vals = [fourier_coefficient([0.0] * 4, v, s, 9, HURWITZ, grid=2).coefficient
            for v in (6.0, 9.0)]
    slope = math.log(abs(vals[0] / vals[1])) / math.log(6.0 / 9.0)
    assert slope == pytest.approx(s, abs=1e-3)


def test_zero_mode_matches_partial_zeta_term():
    # the c = 0 stratum of the zero mode is exactly zeta_R(s) v^s
    s, radius, v = 5.0, 4, 6.0
    a0 = fourier_coefficient([0.0] * 4, v, s, radius, HURWITZ, grid=2)
    lead = zeta_partial(HURWITZ, s, radius) * v ** s
    assert abs(a0.coefficient - lead) < 1e-3 * abs(lead)


def test_nonzero_mode_bessel_ratio():
    s, n, radius = 5.0, 4, 4
    mu = [1.0, 1.0, 0.0, 0.0]
    v1, v2 = 0.4, 0.6
    a1 = fourier_coefficient(mu, v1, s, radius, HURWITZ, grid=4).coefficient
    a2 = fourier_coefficient(mu, v2, s, radius, HURWITZ, grid=4).coefficient
    x = 2 * math.pi * math.sqrt(2.0)
    pred = (v1 / v2) ** (n / 2) * (bessel_k(s - n / 2, x * v1)
                                   / bessel_k(s - n / 2, x * v2))
    assert abs(a1 / a2 - pred) < 0.02 * abs(pred)


def test_weyl_orbit_symmetry_of_modes():
    # coordinate-signed copies of mu in one lattice Weyl orbit agree exactly
    s, radius, v = 5.0, 4, 0.4
    a = fourier_coefficient([1, 1, 0, 0], v, s, radius, HURWITZ, grid=3)
    c = fourier_coefficient([0, 0, 1, 1], v, s, radius, HURWITZ, grid=3)
    assert abs(a.coefficient - c.coefficient) < 1e-12 * max(
        1.0, abs(a.coefficient))


def test_bessel_k_matches_scipy():
    for nu in (0.0, 0.5, 3.0, 4.0):
        for x in (0.3, 1.0, 7.5):
            assert bessel_k(nu, x).real == pytest.approx(
                float(sps.kv(nu, x)), rel=1e-10)


def test_bessel_k_matches_scipy_on_a_wider_grid():
    for nu in (0.0, 0.5, 1.0, 3.0, 6.0):
        for x in (0.05, 0.3, 1.0, 7.5, 40.0):
            assert bessel_k(nu, x).real == pytest.approx(
                float(sps.kv(nu, x)), rel=1e-12)


def test_bessel_k_complex_order_matches_quad():
    # scipy.special.kv takes real orders only; quad integrates the same
    # integrand part by part, up to where it is below e^-50 of its value at 0
    nu = 1 + 1.5j
    for x in (0.05, 0.3, 1.0, 7.5, 40.0):
        parts = [integrate.quad(
            lambda t: math.exp(-x * math.cosh(t)) * part(np.cosh(nu * t)),
            0.0, math.acosh(1 + 60 / x), epsabs=0.0, epsrel=1e-13, limit=400)[0]
            for part in (np.real, np.imag)]
        ref = complex(*parts)
        assert abs(bessel_k(nu, x) - ref) <= 1e-12 * abs(ref)


def test_bessel_k_half_closed_form():
    for x in (0.5, 2.0, 9.0):
        assert bessel_k(0.5, x).real == pytest.approx(
            math.sqrt(math.pi / (2 * x)) * math.exp(-x), rel=1e-12)


def test_bessel_k_imaginary_order_is_real():
    v = bessel_k(2.5j, 1.3)
    assert abs(v.imag) < 1e-12 * max(1.0, abs(v.real))
    # x^2 f'' + x f' - (x^2 + nu^2) f = 0 with nu^2 = -6.25
    x, h = 1.3, 1e-3
    f = lambda t: bessel_k(2.5j, t).real
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    res = x * x * d2 + x * d1 - (x * x - 6.25) * f(x)
    assert abs(res) < 1e-6 * max(1.0, abs(f(x)))


def test_green_function_validation():
    with pytest.raises(ValueError):
        green_function(-1.0, 4.0, 4)
    with pytest.raises(ValueError):
        green_function(1.0, 1.0, 4)


def test_green_function_monotone_in_lam():
    vals = [green_function(lam, 4.0, 4) for lam in (0.01, 0.1, 1.0, 10.0)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_green_small_lam_slope():
    # G_s(lam) ~ lam^(-(n-1)/2) as lam -> 0 for s above the wall
    lams = (1e-5, 1e-6)
    g = [green_function(lam, 4.0, 4) for lam in lams]
    slope = math.log(g[0] / g[1]) / math.log(lams[0] / lams[1])
    assert slope == pytest.approx(-1.5, abs=0.02)


def _green_quad(lam, s, n):
    # the integral with xi = sin^2(theta), by adaptive Gauss-Kronrod
    p = s - (n + 1) / 2

    def integrand(theta):
        sc = math.sin(theta) * math.cos(theta)
        return 2.0 * sc ** (2 * p + 1) * (math.sin(theta) ** 2 + lam) ** (-s)

    return integrate.quad(integrand, 0.0, math.pi / 2, epsabs=0.0,
                          epsrel=1e-13, limit=400)[0]


def test_green_function_matches_quad_oracle():
    for n in (1, 2, 4, 8):
        for s in ((n - 1) / 2 + 0.5, (n - 1) / 2 + 1.25, n + 2.0):
            for lam in (1e-6, 1e-3, 1.0, 1e3):
                assert green_function(lam, s, n) == pytest.approx(
                    _green_quad(lam, s, n), rel=1e-12)


def test_green_function_near_the_wall_within_its_documented_bound():
    # closed form lam^-s B(p+1, p+1) 2F1(s, p+1; 2p+2; -1/lam), which
    # scipy evaluates to about 2e-15 relative at these lam; the bound is
    # the one green_function's docstring states: the rule's tolerance
    # plus the dropped tails
    n = 1
    for q in (0.05, 0.01, 0.001):  # p + 1
        s, p = q, q - 1
        for lam in (1e-3, 1.0, 1e3):
            ref = lam ** -s * sps.beta(q, q) * sps.hyp2f1(s, q, 2 * q, -1 / lam)
            bound = 1e-13 + 2 ** (s + abs(p) + 1) * min(lam, 0.5) ** -q * math.exp(-36)
            assert abs(green_function(lam, s, n) / ref - 1) <= bound


def test_quadratures_emit_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (0.0, 0.5, 6.0, 1 + 1.5j, 2.5j):
            for x in (0.05, 1.0, 40.0):
                bessel_k(nu, x)
        for n, s in ((1, 0.001), (1, 0.05), (4, 2.0), (8, 10.0)):
            for lam in (1e-6, 1.0, 1e3):
                green_function(lam, s, n)
        critical_line_diagnostic(2.0, 2.0, 4)
        critical_line_diagnostic(2.0, 4.0, 4)


def test_trapezoid_warns_when_it_stops_short_of_its_tolerance():
    # sqrt has an endpoint singularity: the rule converges like h^1.5 only
    with pytest.warns(RuntimeWarning, match=r"stopped at 65536 intervals with error"):
        value, error = _trapezoid(np.sqrt, 0.0, 1.0, 1e-13)
    assert 1e-13 * value < error < 1e-6
    assert abs(value - 2 / 3) <= error


def test_green_pde_residual():
    # well-separated points: the finite-difference error stays below 1e-6
    z = UhpPoint([2.0, 0.0, 0.0, 0.0], 1.0)
    w = UhpPoint([0.0, 0.0, 0.0, 0.0], 1.0)
    assert abs(green_pde_residual(z, w, 4.0)) < 1e-6


def test_critical_line_diagnostic_flags_diagonal():
    on = critical_line_diagnostic(2.0, 2.0, 4)
    off = critical_line_diagnostic(2.0, 4.0, 4)
    assert on["linear_growth"] and not off["linear_growth"]
    assert on["eigenvalue"] == pytest.approx(4 + 4.0)
