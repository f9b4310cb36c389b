"""End-to-end acceptance checks.

Each test prints one summary line (criterion number, pass/fail, short
description) and then asserts, so a full run doubles as a report:
run with `pytest -s tests/test_acceptance.py` to see every line.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from octavia import algebra, autoforms, hyperweyl, rings, rootsys, uhp
from octavia.algebra import (
    AlgElem,
    basis_unit,
    cd_multiply,
    conj,
    norm_sq,
    one,
    zero,
)
from octavia.hyperweyl import GroupWord, Inv, Rot, Trans
from octavia.rings import HURWITZ, OCTAVIAN, Z
from octavia.uhp import Jet2, UhpPoint

SEED = 20260823


def _line(num, ok, desc):
    print(f"criterion {num}: {'pass' if ok else 'fail'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _rng():
    return random.Random(SEED)


def _coprime_pairs(ring, rng, count, side):
    pred = rings.is_right_coprime if side == "right" else rings.is_left_coprime
    out = []
    while len(out) < count:
        a = rings.random_element(ring, rng, max_coord2=4)
        c = rings.random_element(ring, rng, max_coord2=4)
        if a.is_zero() or c.is_zero():
            continue
        if pred(ring, a, c):
            out.append((a, c))
    return out


def test_criterion_01_unit_and_root_counts():
    ok = len(rings.units(HURWITZ)) == 24
    ok &= len(rings.units(OCTAVIAN)) == 240
    real, brandt, imag = rings.octavian_unit_classes()
    ok &= (len(real), len(brandt), len(imag)) == (2, 112, 126)
    ok &= len(rootsys.all_roots("d4")) == 24
    ok &= len(rootsys.all_roots("e7")) == 126
    ok &= len(rootsys.all_roots("e8")) == 240
    _line(1, ok, "24/240(2,112,126) units; 24/126/240 roots")


def test_criterion_02_cartan_matrices_and_theta():
    d4 = rootsys.cartan_matrix("d4")
    ok = d4 == [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    e8 = np.array(rootsys.cartan_matrix("e8"))
    # symmetric integer matrix, diagonal 2, simply laced, with the E8
    # invariants: 7 edges forming a tree, degree sequence, determinant 1
    ok &= bool(np.array_equal(e8, e8.T))
    ok &= bool(np.all(np.diag(e8) == 2))
    off = e8 - np.diag(np.diag(e8))
    ok &= bool(np.all(np.isin(off, (0, -1))))
    degrees = sorted((-off).sum(axis=0))
    ok &= degrees == [1, 1, 1, 2, 2, 2, 2, 3]
    ok &= round(float(np.linalg.det(e8))) == 1
    ok &= round(float(np.linalg.det(np.array(d4)))) == 4
    for name in ("d4", "e8"):
        ok &= norm_sq(rootsys.root_basis(name).theta) == 1
    _line(2, ok, "Cartan matrices match; highest root has unit norm")


def test_criterion_03_ring_closure():
    from octavia.rings import D4_SIMPLE_ROOTS, E8_SIMPLE_ROOTS
    ok = True
    for ring, basis in ((HURWITZ, D4_SIMPLE_ROOTS), (OCTAVIAN, E8_SIMPLE_ROOTS)):
        for x in basis:
            for y in basis:
                ok &= rings.is_member(ring, cd_multiply(x, y))
    _line(3, ok, "integral basis products stay in the lattice (H and O)")


def test_criterion_04_aut_o_order_and_multiplicativity():
    t0 = time.perf_counter()
    maps = rootsys.generate_G2_2()
    elapsed = time.perf_counter() - t0
    ok = len(maps) == 12096 and elapsed < 60.0
    # every element multiplicative on all basis pairs, vectorized:
    # column j of matrix2 is phi(e_j) in doubled coordinates
    from octavia.rings import _mult2
    stack = np.stack([np.array(m.rows2, dtype=np.int64) for m in maps])
    basis2 = 2 * np.eye(8, dtype=np.int64)
    for i in range(8):
        for j in range(8):
            prod2 = _mult2(basis2[i][None, :], basis2[j][None, :])[0]
            lhs = stack @ prod2 // 2          # phi(e_i e_j)
            rhs = _mult2(stack[:, :, i], stack[:, :, j])
            ok &= bool(np.array_equal(lhs, rhs))
    _line(4, ok, f"|Aut O| = 12096 in {elapsed:.1f}s; all maps multiplicative")


def test_criterion_05_w_plus_d4():
    ok = rootsys.d4_even_count() == 96
    # independent oracle: diagonal pairs (a, b) with ab in the quaternion
    # subgroup Q, counted modulo (a, b) ~ (-a, -b)
    q = set(rootsys._qset())
    cnt = sum(cd_multiply(a, b) in q
              for a in rings.units(HURWITZ) for b in rings.units(HURWITZ))
    ok &= cnt // 2 == 96
    _line(5, ok, "|W+(D4)| = 96 by closure and by diagonal-pair count")


def test_criterion_06_w_plus_e7():
    t0 = time.perf_counter()
    order = rootsys.generate_w_e7()
    ok = order == 120 * 12096
    _line(6, ok, f"|W+(E7)| = 1451520 by stabilizer chain in {time.perf_counter()-t0:.2f}s")


def test_criterion_07_w_plus_e8_and_round_trips():
    ok = rootsys.w_e8_order() == 120 * 240 * 12096
    rng = _rng()
    imag = rootsys.imaginary_units()
    g2 = rootsys.generate_G2_2()
    us = rings.units(OCTAVIAN)
    for _ in range(1000):
        m = rootsys.e8_element(rng.choice(imag), rng.choice(imag),
                               rng.choice(us), rng.choice(g2))
        e, f, b, phi = rootsys.e8_decompose(m)
        ok &= rootsys.e8_element(e, f, b, phi).key() == m.key()
        if not ok:
            break
    _line(7, ok, "|W+(E8)| = 240*120*12096; 1000 decomposition round trips")


def _bimult_matrices():
    """Doubled-coordinate matrices of x -> gx and x -> xg per imaginary unit."""
    imag = rootsys.imaginary_units()
    dim = 8
    basis = [one(dim)] + [basis_unit(dim, k) for k in range(1, dim)]
    L = np.empty((len(imag), 8, 8), dtype=np.int64)
    R = np.empty_like(L)
    for k, g in enumerate(imag):
        for j, e in enumerate(basis):
            L[k, :, j] = cd_multiply(g, e).coords2
            R[k, :, j] = cd_multiply(e, g).coords2
    return imag, L, R


def test_criterion_08_automorphism_criteria():
    rng = _rng()
    us = rings.units(OCTAVIAN)
    ok = True
    for _ in range(1000):
        seq = tuple(rng.choice(us) for _ in range(rng.randint(1, 4)))
        m = rootsys.nested_conjugation_map(seq)
        ok &= rootsys.is_automorphism_bimult(seq) == rootsys.is_automorphism_map(m)
        if not ok:
            break
    # product criterion vs the general criterion on every imaginary-unit
    # pair and triple, vectorized over doubled integer coordinates
    imag, L, R = _bimult_matrices()
    n = len(imag)
    T = L @ (L @ R // 2) // 2                     # x -> g(g(x g))
    I2 = np.array([g.coords2 for g in imag], dtype=np.int64)
    cube2 = np.array([cd_multiply(g, cd_multiply(g, g)).coords2
                      for g in imag], dtype=np.int64)
    b_pair = np.einsum("hij,gj->ghi", T, cube2) // 2
    thm_pair = np.all(b_pair[:, :, 1:] == 0, axis=2)
    prod_pair = np.empty((n, n, 8), dtype=np.int64)
    from octavia.rings import _mult2
    for h in range(n):
        prod_pair[:, h] = _mult2(I2, np.broadcast_to(I2[h], (n, 8)))
    pm_one = np.zeros((2, 8), dtype=np.int64)
    pm_one[0, 0], pm_one[1, 0] = 2, -2
    cor_pair = ((prod_pair == pm_one[0]).all(axis=2)
                | (prod_pair == pm_one[1]).all(axis=2))
    ok &= bool(np.array_equal(thm_pair, cor_pair))
    for k in range(n):
        b_tri = b_pair.reshape(-1, 8) @ T[k].T // 2
        thm_tri = np.all(b_tri[:, 1:] == 0, axis=1)
        p3 = prod_pair.reshape(-1, 8) @ R[k].T // 2
        cor_tri = (p3 == pm_one[0]).all(axis=1) | (p3 == pm_one[1]).all(axis=1)
        ok &= bool(np.array_equal(thm_tri, cor_tri))
        if not ok:
            break
    # spot check the vectorization against the scalar functions
    for _ in range(100):
        seq = tuple(rng.choice(imag) for _ in range(rng.randint(2, 3)))
        ok &= (rootsys.unit_corollary_check(seq)
               == rootsys.is_automorphism_bimult(seq))
    _line(8, ok, "reality criterion vs brute force; unit product "
                 "criterion on all imaginary pairs/triples")


def test_criterion_09_euclid():
    rng = _rng()
    ok = True
    for ring, count in ((HURWITZ, 10000), (OCTAVIAN, 1000)):
        for _ in range(count):
            a = rings.random_element(ring, rng)
            c = rings.random_element(ring, rng)
            if c.is_zero():
                continue
            ok &= rings.right_euclid(ring, a, c).replay_ok()
            if not ok:
                break
    # the documented octavian pair: one division step with the recorded
    # quotient already reaches a unit remainder, yet 1 + e1 divides both
    e = lambda k: basis_unit(8, k)
    a = e(1) + e(2)
    c = e(1) + e(3)
    q1 = AlgElem.from_coords2(8, [2, 1, 0, 0, 1, -1, 0, -1])
    r1 = cd_multiply(q1, c) - a
    ok &= norm_sq(r1) == 1
    g = one(8) + e(1)
    divs = rings.common_right_divisors(OCTAVIAN, a, c, max_norm=2)
    ok &= any(d == g for d in divs)
    _line(9, ok, "11000 exact division-chain replays; unit remainder "
                 "despite the common right divisor 1+e1")


def test_criterion_10_orbit_lemma():
    rng = _rng()
    ok = True
    for ring in (Z, HURWITZ, OCTAVIAN):
        for a, c in _coprime_pairs(ring, rng, 500, "right"):
            w = hyperweyl.build_w_ac(ring, a, c)
            got = hyperweyl.apply_word(w, hyperweyl.minus_delta(ring.dim))
            ok &= got == hyperweyl.orbit_target(a, c)
            if not ok:
                break
    _line(10, ok, "w_{a,c}(-delta) = [[|a|^2, ac*],[ca*, |c|^2]], 500/ring")


def test_criterion_11_row_action():
    rng = _rng()
    ok = True
    for ring in (Z, HURWITZ, OCTAVIAN):
        base = (zero(ring.dim), one(ring.dim))
        for c, d in _coprime_pairs(ring, rng, 500, "left"):
            wt = hyperweyl.build_w_tilde_cd(ring, c, d)
            r = hyperweyl.row_act(base, wt)
            ok &= r == (c, d) or r == (-c, -d)
            if not ok:
                break
    # (S_i S_j)^2 acts as +-1 on rows whenever (e_i e_j)^2 = +-1
    imag = [basis_unit(8, k) for k in range(1, 8)]
    for ei in imag:
        for ej in imag:
            p = cd_multiply(ei, ej)
            if cd_multiply(p, p) not in (one(8), -one(8)):
                continue
            w = GroupWord(OCTAVIAN, (Rot(ei), Rot(ej), Rot(ei), Rot(ej)))
            row = (rings.random_element(OCTAVIAN, rng, max_coord2=3),
                   rings.random_element(OCTAVIAN, rng, max_coord2=3))
            r = hyperweyl.row_act(row, w)
            ok &= r == row or r == (-row[0], -row[1])
    _line(11, ok, "(0,1) row orbit hits (c,d) up to sign; (S_iS_j)^2 "
                  "row identity")


def test_criterion_12_psl0_structure():
    ok = rings.commutator_ideal_index() == 4
    o, zz = one(4), zero(4)
    for w in (GroupWord(HURWITZ, (Inv(),)),
              GroupWord(HURWITZ, (Trans(o),)),
              GroupWord(HURWITZ, (Rot(rings.units(HURWITZ)[5]),))):
        ok &= hyperweyl.psl0_membership(hyperweyl.matrix_of_word(w))
    omega = AlgElem.from_coords2(4, [1, 1, 1, 1])
    ok &= not hyperweyl.psl0_membership(((-o, zz), (zz, -omega)))
    _line(12, ok, "commutator ideal index 4; generators in the kernel "
                  "subgroup, a triality diagonal is not")


def _jet_f(uj, vj):
    nrm = sum((x * x for x in uj), vj * vj)
    return vj * vj * vj / (1 + nrm)


def test_criterion_13_geometry_invariance():
    rng = _rng()
    ok = True
    worst_dist = 0.0
    for ring in (Z, HURWITZ, OCTAVIAN):
        for _ in range(500):
            w = hyperweyl.random_word(ring, rng, 5, 2)
            z1 = UhpPoint([rng.uniform(-1, 1) for _ in range(ring.dim)],
                          rng.uniform(0.5, 2.0))
            z2 = UhpPoint([rng.uniform(-1, 1) for _ in range(ring.dim)],
                          rng.uniform(0.5, 2.0))
            d = abs(uhp.distance(z1, z2)
                    - uhp.distance(uhp.act_word(w, z1), uhp.act_word(w, z2)))
            worst_dist = max(worst_dist, d)
            # Laplacian invariance certified in exact rational arithmetic,
            # so the defect is identically zero (< 1e-9 trivially)
            u0 = [Fraction(rng.randint(-4, 4), 5) for _ in range(ring.dim)]
            v0 = Fraction(rng.randint(2, 10), 5)
            lhs = uhp.laplace_beltrami_jet(
                lambda uj, vj: _jet_f(*uhp.act_word_jets(w, uj, vj)), u0, v0)
            uj, vj = uhp.act_word_jets(w, [Jet2(x) for x in u0], Jet2(v0))
            rhs = uhp.laplace_beltrami_jet(_jet_f, [j.a for j in uj], vj.a)
            ok &= lhs == rhs
            if not ok:
                break
    ok &= worst_dist < 1e-9
    z = UhpPoint([0.3, -0.2, 0.1, 0.4, 0.0, 0.25, -0.5, 0.1], 1.3)
    xp, xm, x = uhp.embed(z)
    ok &= abs(-xp * xm + float(x @ x) + 1.0) < 1e-12
    _line(13, ok, f"isometry defect {worst_dist:.1e} < 1e-9 over 500 "
                  "words/ring; exact Laplacian invariance; embedding ok")


def test_criterion_14_eisenstein_symmetries():
    s = 4.0
    z = UhpPoint([0.0] * 4, 1.0)
    e = {r: autoforms.eisenstein_truncated(
        autoforms.SeriesParams(HURWITZ, s, r, z)) for r in (4, 9, 16)}
    zi = uhp.act_word(GroupWord(HURWITZ, (Inv(),)), z)
    zr = uhp.act_word(GroupWord(HURWITZ, (Rot(rings.units(HURWITZ)[3]),)), z)
    ok = abs(e[4] - autoforms.eisenstein_truncated(
        autoforms.SeriesParams(HURWITZ, s, 4, zi))) <= 1e-13
    ok &= abs(e[4] - autoforms.eisenstein_truncated(
        autoforms.SeriesParams(HURWITZ, s, 4, zr))) <= 1e-13
    zt = UhpPoint([1.0, 0.0, 0.0, 0.0], 1.0)
    res = {r: abs(e[r] - autoforms.eisenstein_truncated(
        autoforms.SeriesParams(HURWITZ, s, r, zt))) for r in (4, 16)}
    ok &= res[16] < res[4]
    f = lambda p: autoforms.eisenstein_truncated(
        autoforms.SeriesParams(HURWITZ, 5.0, 16, p)).real
    lhs = uhp.laplace_beltrami_numeric(f, z, h=1e-3)
    rhs = 5.0 * (5.0 - 4) * f(z)
    ok &= abs(lhs - rhs) < 1e-4 * abs(rhs)
    _line(14, ok, "exact inversion/rotation invariance; translation "
                  f"defect {res[4]:.3f} -> {res[16]:.3f}; eigenrelation ok")


def test_criterion_15_zeta_relation_and_shells():
    z = UhpPoint([0.0] * 4, 1.0)
    res = [autoforms.zeta_relation_check(HURWITZ, z, 5.0, r)
           for r in (4, 9, 16)]
    ok = res[0] > res[1] > res[2] > 0
    ok &= rings.shell_counts(HURWITZ, 5) == [24, 24, 96, 24, 144]
    ok &= rings.shell_counts(OCTAVIAN, 2) == [240, 2160]
    _line(15, ok, "series factorization residual shrinks with the cutoff; "
                  "shell counts match")


def test_criterion_16_fourier():
    s, n = 5.0, 4
    a = [autoforms.fourier_coefficient([0.0] * 4, v, s, 9, HURWITZ,
                                       grid=2).coefficient for v in (6.0, 9.0)]
    lead = math.log(abs(a[0] / a[1])) / math.log(6.0 / 9.0)
    ok = abs(lead - s) < 1e-3
    zc = autoforms.zeta_partial(HURWITZ, s, 9)
    rem = [autoforms.fourier_coefficient([0.0] * 4, v, s, 9, HURWITZ,
                                         grid=4).coefficient - zc * v ** s
           for v in (0.3, 0.45)]
    sub = math.log(abs(rem[0] / rem[1])) / math.log(0.3 / 0.45)
    ok &= abs(sub - (n - s)) < 1e-3
    mu = [1.0, 1.0, 0.0, 0.0]
    c1 = autoforms.fourier_coefficient(mu, 0.4, s, 4, HURWITZ, grid=4).coefficient
    c2 = autoforms.fourier_coefficient(mu, 0.6, s, 4, HURWITZ, grid=4).coefficient
    x = 2 * math.pi * math.sqrt(2.0)
    pred = ((0.4 / 0.6) ** (n / 2)
            * autoforms.bessel_k(s - n / 2, x * 0.4)
            / autoforms.bessel_k(s - n / 2, x * 0.6))
    ok &= abs(c1 / c2 - pred) < 0.01 * abs(pred)
    da = autoforms.fourier_coefficient([1, 1, 0, 0], 0.4, s, 4, HURWITZ, grid=5)
    db = autoforms.fourier_coefficient([1, -1, 0, 0], 0.4, s, 4, HURWITZ, grid=5)
    dc = autoforms.fourier_coefficient([0, 0, 1, 1], 0.4, s, 4, HURWITZ, grid=5)
    quad = da.error_estimate + db.error_estimate
    ok &= abs(da.coefficient - db.coefficient) <= max(quad, 1e-12)
    ok &= abs(da.coefficient - db.coefficient) <= 2e-3 * abs(da.coefficient)
    ok &= abs(da.coefficient - dc.coefficient) <= 1e-12 * abs(da.coefficient)
    _line(16, ok, f"constant-term exponents {lead:.4f}/{sub:.4f}; mode "
                  "ratio matches the Bessel prediction; orbit symmetry ok")


def test_criterion_17_green_function():
    z = UhpPoint([2.0, 0.0, 0.0, 0.0], 1.0)
    w = UhpPoint([0.0, 0.0, 0.0, 0.0], 1.0)
    ok = abs(autoforms.green_pde_residual(z, w, 4.0)) < 1e-6
    lams = (1e-5, 1e-6)
    g = [autoforms.green_function(lam, 4.0, 4) for lam in lams]
    slope = math.log(g[0] / g[1]) / math.log(lams[0] / lams[1])
    ok &= abs(slope - (-1.5)) < 0.02
    _line(17, ok, f"PDE residual < 1e-6 off the diagonal; short-distance "
                  f"slope {slope:.4f}")


def test_criterion_18_periodic_orbits():
    rng = _rng()
    o = np.array([1.0])
    gen_t = ((o, o), (0 * o, o))
    gen_s = ((0 * o, -o), (o, 0 * o))

    def mul(m1, m2):
        return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(2))
                           for j in range(2)) for i in range(2))

    found = 0
    ok = True
    while found < 20:
        m = ((o, 0 * o), (0 * o, o))
        for _ in range(rng.randint(2, 6)):
            m = mul(m, gen_t if rng.random() < 0.7 else gen_s)
        tr = float(m[0][0][0] + m[1][1][0])
        if abs(tr) <= 2:
            continue
        found += 1
        ell = uhp.periodic_orbit_length(m)
        ok &= abs(2 * math.cosh(ell / 2) - abs(tr)) < 1e-12
        # independent oracle: log of the larger eigenvalue
        lam = (abs(tr) + math.sqrt(tr * tr - 4)) / 2
        ok &= abs(ell - 2 * math.log(lam)) < 1e-12
    m0 = ((2 * o, o), (o, o))
    ell0 = uhp.periodic_orbit_length(m0)
    ok &= abs(ell0 - 2 * math.acosh(1.5)) < 1e-12
    ok &= abs(ell0 - 1.9248473002384139) < 1e-12
    _line(18, ok, "2 cosh(l/2) = |Re Tr M| on 20 integral hyperbolics; "
                  "[[2,1],[1,1]] gives l = 2 arcosh(3/2)")


def test_criterion_19_sedenion_failure():
    p, q, nz, np_, nq = algebra.find_sedenion_zero_divisors()
    ok = nz == 0 and np_ > 0 and nq > 0
    ok &= cd_multiply(p, q).is_zero()
    ok &= algebra.basis_sum_zero_divisor_search(8) == []
    _line(19, ok, "sedenion zero-divisor pair found; none among octonions "
                  "in the same search space")
