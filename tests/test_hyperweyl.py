"""Hyperbolic Weyl group action on 2x2 Hermitian matrices."""

import hashlib
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from octavia.algebra import (
    AlgElem,
    _mult2,
    basis_unit,
    cd_multiply,
    conj,
    norm_sq,
    one,
    zero,
)
from octavia.hyperweyl import (
    GroupWord,
    HermMat,
    Inv,
    Rot,
    Trans,
    _canonical_rows,
    act_coords,
    apply_word,
    build_w_ac,
    build_w_tilde_cd,
    canonical_pair,
    coset_reps,
    delta,
    matrix_of_word,
    minus_delta,
    orbit_target,
    psl0_membership,
    psl_det,
    psl_det_real_crosscheck,
    psl_inverse,
    random_word,
    row_act,
    simple_alpha,
)
import octavia.rings
from octavia.rings import (
    HURWITZ,
    OCTAVIAN,
    Z,
    _class_keys,
    _conj_sign,
    _lattice_classes,
    _null_vectors,
    enumerate_ball,
    is_left_coprime,
    is_right_coprime,
    left_content,
    octavian_unit_classes,
    random_element,
    right_euclid,
    units,
)
from octavia.rootsys import cartan_matrix, sandwich_map, theta_marks
from octavia.uhp import UhpPoint, _hyperboloid, act_word

# the exact Cartan matrix, nodes -1, 0, 1..n as simple_alpha numbers them:
# Z with its root 1 gives AE3; the Hurwitz and octavian rings over-extend
# the finite root system named
RINGS = [(Z, [[2, -1, 0], [-1, 2, -2], [0, -2, 2]]), (HURWITZ, "d4"), (OCTAVIAN, "e8")]


def _overextended_cartan(algebra):
    """The Cartan matrix of the over-extension of a finite simply-laced
    root system: the affine root is delta - theta, so its row is
    -A marks, and the over-extended node links only to the affine one."""
    a = np.array(cartan_matrix(algebra))
    n = len(a)
    out = np.zeros((n + 2, n + 2), dtype=np.int64)
    out[2:, 2:] = a
    out[1, 2:] = out[2:, 1] = -(a @ theta_marks(algebra))
    out[0, 0] = out[1, 1] = 2
    out[0, 1] = out[1, 0] = -1
    return out.tolist()


def _coprime_pairs(ring, rng, count, side="right"):
    pred = is_right_coprime if side == "right" else is_left_coprime
    out = []
    while len(out) < count:
        a = random_element(ring, rng, max_coord2=4)
        c = random_element(ring, rng, max_coord2=4)
        if a.is_zero() or c.is_zero():
            continue
        if pred(ring, a, c):
            out.append((a, c))
    return out


def test_delta_is_null():
    for dim in (1, 4, 8):
        assert delta(dim).norm_sq() == 0
        assert minus_delta(dim).norm_sq() == 0


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
def test_delta_is_built_once_and_matches_make(dim):
    zero_x = AlgElem(dim, [0] * dim)
    for got, want in ((delta(dim), HermMat.make(-1, 0, zero_x)),
                      (minus_delta(dim), HermMat.make(1, 0, zero_x))):
        assert got == want and type(got.x_plus) is type(got.x_minus) is Fraction
        assert (got.x.num, got.x.den) == (want.x.num, want.x.den)
    assert delta(dim) is delta(dim) and minus_delta(dim) is minus_delta(dim)


def test_delta_rejects_bad_dims_on_every_call():
    for _ in range(2):  # an error is not cached
        for make in (delta, minus_delta):
            with pytest.raises(ValueError, match="unsupported algebra dimension 3"):
                make(3)


@pytest.mark.parametrize("ring,cartan", RINGS, ids=lambda x: getattr(x, "name", ""))
def test_overextended_cartan_shape(ring, cartan):
    alphas = [simple_alpha(ring, i) for i in range(-1, len(ring.basis2) + 1)]
    gram = [[2 * a.bilinear(b) for b in alphas] for a in alphas]
    assert gram == (_overextended_cartan(cartan) if isinstance(cartan, str) else cartan)
    if ring is OCTAVIAN:  # E10 is unimodular
        assert round(np.linalg.det(np.array(gram, dtype=float))) == -1


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_simple_alpha_rejects_indices_outside_range(ring):
    n = len(ring.basis2)
    for index in (-2, -5, n + 1):
        with pytest.raises(ValueError, match=rf"-1\.\.{n}"):
            simple_alpha(ring, index)


def test_tokens_preserve_quadratic_form(rng):
    for ring in (HURWITZ, OCTAVIAN):
        us = units(ring)
        for _ in range(30):
            X = HermMat(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)),
                        random_element(ring, rng, max_coord2=3))
            toks = tuple(
                rng.choice([Inv(), Trans(random_element(ring, rng, max_coord2=2)),
                            Rot(rng.choice(us))])
                for _ in range(5))
            Y = apply_word(GroupWord(ring, toks), X)
            assert Y.norm_sq() == X.norm_sq()


def _fraction_act_coords(tokens, x_plus, x_minus, x):
    """The token loop of act_coords as it ran on Fractions and floats,
    halving by true division: the oracle for the shifted-integer loop
    of apply_word and for the float path of uhp.act_word."""
    x = list(x)
    for tok in reversed(tokens):
        if isinstance(tok, Inv):
            x_plus, x_minus = x_minus, x_plus
            x[0] = -x[0]
        elif isinstance(tok, Trans):
            y2 = tok.y.coords2
            h = x_minus / 2
            x_plus = (x_plus + sum(a * b for a, b in zip(x, y2) if b)
                      + h * sum(b * b for b in y2) / 2)
            x = [a + b * h if b else a for a, b in zip(x, y2)]
        else:
            rows2 = sandwich_map(tok.eps).rows2
            x = [sum(a * r[j] for a, r in zip(x, rows2) if r[j]) / 2
                 for j in range(len(x))]
    return x_plus, x_minus, x


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_apply_word_matches_fraction_loop(ring, rng):
    for _ in range(25):
        w = random_word(ring, rng, 20, 4)
        if rng.randrange(2):  # the hyperboloid point of u + iv: 1/v diagonals
            u = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(ring.dim)]
            v = Fraction(rng.randint(1, 9), rng.randint(1, 7))
            X = HermMat(v + sum(x * x for x in u) / v, 1 / v,
                        AlgElem(ring.dim, [x / v for x in u]))
        else:
            X = HermMat(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5), 3),
                        random_element(ring, rng, max_coord2=3))
        x_plus, x_minus, x = _fraction_act_coords(w.tokens, X.x_plus, X.x_minus, X.x.coords)
        assert apply_word(w, X) == HermMat(x_plus, x_minus, AlgElem(ring.dim, x))


def test_act_coords_rejects_an_unscaled_odd_int():
    # ints halve by exact shifts: an odd value raises instead of rounding down
    with pytest.raises(ArithmeticError):
        act_coords((Trans(one(4)),), 0, 1, [0] * 4)
    eps = AlgElem.from_coords2(4, (1, 1, 1, 1))  # eps 1 eps = (-1 + e1 + e5 + e6)/2
    with pytest.raises(ArithmeticError):
        act_coords((Rot(eps),), 0, 0, [1, 0, 0, 0])
    assert act_coords((Rot(eps),), 0, 0, [2, 0, 0, 0]) == (0, 0, [-1, 1, 1, 1])


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_act_word_floats_unchanged(ring, rng, nprng):
    # the float path still halves by true division, so every bit stays
    for _ in range(25):
        w = random_word(ring, rng, 20, 4)
        z = UhpPoint(nprng.uniform(-2, 2, ring.dim), float(nprng.uniform(0.3, 3)))
        _, x_minus, x = _fraction_act_coords(w.tokens, *_hyperboloid(z.u, z.v))
        got = act_word(w, z)
        assert got.u == tuple(a * (1 / x_minus) for a in x) and got.v == 1 / x_minus


def test_translations_and_rotations_fix_delta(rng):
    for ring in (HURWITZ, OCTAVIAN):
        d = delta(ring.dim)
        w = GroupWord(ring, (Trans(random_element(ring, rng)),
                             Rot(rng.choice(units(ring))),
                             Trans(one(ring.dim))))
        assert apply_word(w, d) == d
        assert apply_word(GroupWord(ring, (Inv(),)), d) != d


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_orbit_lemma(ring, rng):
    for a, c in _coprime_pairs(ring, rng, 40, side="right"):
        w = build_w_ac(ring, a, c)
        assert apply_word(w, minus_delta(ring.dim)) == orbit_target(a, c)


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_row_lemma(ring, rng):
    base = (zero(ring.dim), one(ring.dim))
    for c, d in _coprime_pairs(ring, rng, 40, side="left"):
        wt = build_w_tilde_cd(ring, c, d)
        r1, r2 = row_act(base, wt)
        assert (r1, r2) == (c, d) or (r1, r2) == (-c, -d)


def _element_row_act(row, w):
    """The token loop of row_act as it ran on AlgElems, one exact product
    per factor: the oracle of the doubled-integer row action."""
    a1, a2 = row
    for tok in w.tokens:
        if isinstance(tok, Inv):
            a1, a2 = a2, -a1
        elif isinstance(tok, Trans):
            a1, a2 = a1, cd_multiply(a1, tok.y) + a2
        else:
            a1, a2 = cd_multiply(a1, tok.eps), cd_multiply(a2, conj(tok.eps))
    return a1, a2


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_row_act_matches_element_loop(ring, rng):
    # random words on lattice rows, on rows with denominators 3 and 6 (not
    # half-integral), and the coset words of left-coprime rows
    dim = ring.dim
    for i in range(60):
        w = random_word(ring, rng, 20, 4)
        if i % 2:
            row = (random_element(ring, rng), random_element(ring, rng))
        else:
            row = tuple(AlgElem(dim, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6)))
                                      for _ in range(dim)]) for _ in range(2))
        assert row_act(row, w) == _element_row_act(row, w)
    base = (zero(dim), one(dim))
    for c, d in _coprime_pairs(ring, rng, 20, side="left"):
        wt = build_w_tilde_cd(ring, c, d)
        assert row_act(base, wt) == _element_row_act(base, wt)


def test_row_act_rotates_by_non_central_octavian_units(rng):
    # x -> x eps and x -> x conj(eps) by Brandt and imaginary units, which
    # neither commute nor associate with the row entries
    _, brandt, imag = octavian_unit_classes()
    third = AlgElem(8, [Fraction(k, 3) for k in range(1, 9)])
    for _ in range(40):
        toks = [Rot(rng.choice(brandt + imag)) for _ in range(3)]
        toks.insert(rng.randrange(4), Trans(random_element(OCTAVIAN, rng)))
        toks.insert(rng.randrange(5), Inv())
        w = GroupWord(OCTAVIAN, tuple(toks))
        for row in ((random_element(OCTAVIAN, rng), random_element(OCTAVIAN, rng)),
                    (third, random_element(OCTAVIAN, rng))):
            assert row_act(row, w) == _element_row_act(row, w)


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_word_builders_reuse_the_euclid_chain(ring, rng, euclid_runs):
    # a trace or a coprimality test, then the word, on one pair and side
    # runs one chain
    (a, c), = _coprime_pairs(ring, rng, 1, side="right")
    (d, c_left), = _coprime_pairs(ring, rng, 1, side="left")
    octavia.rings._euclid.cache_clear()
    euclid_runs.clear()
    tr = right_euclid(ring, a, c)
    assert build_w_ac(ring, a, c).tokens[-1] == Rot(tr.last_divisor)
    assert euclid_runs == ["right"]
    assert is_left_coprime(ring, d, c_left)
    build_w_tilde_cd(ring, c_left, d)
    assert euclid_runs == ["right", "left"]


def test_s_pair_squared_row_identity(rng):
    imag = [basis_unit(8, k) for k in range(1, 8)]
    for _ in range(40):
        ei, ej = rng.choice(imag), rng.choice(imag)
        p = cd_multiply(ei, ej)
        if cd_multiply(p, p) not in (one(8), -one(8)):
            continue
        w = GroupWord(OCTAVIAN, (Rot(ei), Rot(ej), Rot(ei), Rot(ej)))
        row = (random_element(OCTAVIAN, rng, max_coord2=3),
               random_element(OCTAVIAN, rng, max_coord2=3))
        r1, r2 = row_act(row, w)
        assert (r1, r2) == row or (r1, r2) == (-row[0], -row[1])


def test_psl_det_and_inverse(rng):
    o, zz = one(4), zero(4)
    for _ in range(20):
        w = GroupWord(HURWITZ, (Trans(random_element(HURWITZ, rng, max_coord2=2)),
                                Inv(), Rot(rng.choice(units(HURWITZ)))))
        S = matrix_of_word(w)
        assert psl_det(S) == 1
        assert psl_det_real_crosscheck(S) == pytest.approx(1.0, abs=1e-6)
        Sinv = psl_inverse(S)
        prod = tuple(
            tuple(cd_multiply(S[i][0], Sinv[0][j]) + cd_multiply(S[i][1], Sinv[1][j])
                  for j in range(2)) for i in range(2))
        assert prod == ((o, zz), (zz, o))


def test_psl_inverse_scales_by_the_determinant():
    o, zz = one(4), zero(4)
    S = ((2 * o, basis_unit(4, 1)), (zz, o))
    assert psl_det(S) == 4
    Sinv = psl_inverse(S)
    prod = tuple(
        tuple(cd_multiply(S[i][0], Sinv[0][j]) + cd_multiply(S[i][1], Sinv[1][j])
              for j in range(2)) for i in range(2))
    assert prod == ((o, zz), (zz, o))
    with pytest.raises(ZeroDivisionError):
        psl_inverse(((o, o), (o, o)))


def test_psl0_membership_rejects_non_hurwitz_entries():
    o, zz = one(4), zero(4)
    half = AlgElem.from_coords2(4, (1, 1, 0, 0))  # (1 + e1)/2 is no Hurwitz integer
    for S in (((half, zz), (zz, o)), ((o, zz), (zz, one(8)))):
        with pytest.raises(ValueError):
            psl0_membership(S)


def test_psl0_membership():
    o, zz = one(4), zero(4)
    gens = [
        GroupWord(HURWITZ, (Inv(),)),
        GroupWord(HURWITZ, (Trans(o),)),
        GroupWord(HURWITZ, (Rot(units(HURWITZ)[5]),)),
    ]
    for w in gens:
        assert psl0_membership(matrix_of_word(w))
    # diag(a, b) with ab outside the quaternion subgroup Q is a triality
    # element of PSL(2, H) and must be rejected
    omega = units(HURWITZ)[
        [u.coords for u in units(HURWITZ)].index(
            tuple(Fraction(1, 2) for _ in range(4)))]
    assert not psl0_membership(((-o, zz), (zz, -omega)))


def test_psl0_diag_count_is_96():
    from octavia.rootsys import _qset
    zz = zero(4)
    q = set(_qset())
    cnt = 0
    for a in units(HURWITZ):
        for b in units(HURWITZ):
            m = psl0_membership(((a, zz), (zz, b)))
            assert m == (cd_multiply(a, b) in q)
            cnt += m
    assert cnt // 2 == 96


def test_canonical_pair_invariance(rng):
    # Hurwitz classes are unit orbits: e(c, d) must map to one representative
    for c, d in _coprime_pairs(HURWITZ, rng, 15, side="left"):
        rep = canonical_pair(HURWITZ, c, d)
        for e in list(units(HURWITZ))[:8]:
            assert canonical_pair(
                HURWITZ, cd_multiply(e, c), cd_multiply(e, d)) == rep


def test_coset_reps_counts():
    # mod sign: (0,1), (1,0), (1,1), (1,-1); one int64 row (c2 | d2) each
    reps_z = coset_reps(Z, 1)
    assert reps_z.dtype == np.int64 and reps_z.shape == (4, 2)
    reps_h = coset_reps(HURWITZ, 1)
    assert reps_h.dtype == np.int64 and reps_h.shape == (26, 8)


@pytest.mark.parametrize("ring, bound", [(Z, 9), (HURWITZ, 2), (OCTAVIAN, 1)],
                         ids=["z-9", "hurwitz-2", "octavian-1"])
def test_coset_reps_are_their_own_canonical_pairs(ring, bound):
    # canonical_pair decides coprimality by one scalar Euclid run and
    # canonicalizes its pair alone; every row of the table is a fixed point
    # (the Hurwitz bound-1 rows are among the bound-2 rows)
    n = ring.dim
    for row in coset_reps(ring, bound).tolist():
        c, d = AlgElem.from_coords2(n, row[:n]), AlgElem.from_coords2(n, row[n:])
        assert canonical_pair(ring, c, d) == (c, d)


@pytest.mark.parametrize("ring, bound", [(Z, 9), (HURWITZ, 2), (HURWITZ, 3),
                                         (OCTAVIAN, 1)],
                         ids=["z-9", "hurwitz-2", "hurwitz-3", "octavian-1"])
def test_coset_reps_match_full_ball_scan(ring, bound):
    # coset_reps takes c over one member per lattice class c^-bar O only;
    # every left-coprime pair of the ball (one Euclid run each, not the
    # primitivity flags of the key table) must give the same classes
    pts = enumerate_ball(ring, bound)
    c2, d2 = np.repeat(pts, len(pts), axis=0), np.tile(pts, (len(pts), 1))
    keep = left_content(ring, c2, d2) == 4
    rows = _canonical_rows(ring, c2[keep], d2[keep])
    assert coset_reps(ring, bound).tolist() == np.unique(rows, axis=0).tolist()


@pytest.mark.parametrize("ring, bound", [(HURWITZ, 6), (OCTAVIAN, 2)],
                         ids=["hurwitz-6", "octavian-2"])
def test_coset_classes_are_the_coprime_keys(ring, bound):
    # what coset_reps rests on: one class per key (|c|^2, c^-bar d, |d|^2),
    # so the rows' keys are pairwise distinct and are exactly the
    # primitive null vectors
    n = ring.dim
    rows = coset_reps(ring, bound)
    c2, d2 = rows[:, :n], rows[:, n:]
    got = np.column_stack([_mult2(c2 * _conj_sign(n), d2), (c2 * c2).sum(axis=1) // 4,
                           (d2 * d2).sum(axis=1) // 4])
    assert len(np.unique(got, axis=0)) == len(rows)
    table = _null_vectors(ring, bound)
    assert len(table) == len(rows)
    assert np.array_equal(np.unique(got, axis=0), np.unique(table, axis=0))


def test_coset_reps_bound_must_be_an_integer():
    for bound in (True, 1.0, 2.5):
        with pytest.raises(ValueError, match="must be an integer"):
            coset_reps(Z, bound)


def test_octavian_classes_are_sign_invariant():
    # what the octavian quotient of coset_reps rests on: for c' in the
    # lattice class of c, (c', c'(c^-1 d)) runs the quotients of (c, d),
    # so both canonicalize alike.  The sign case c' = -c, row by row, on
    # the left-coprime pairs (one Euclid run each):
    pts = enumerate_ball(OCTAVIAN, 2)
    c = np.repeat(pts[241::97], len(pts), axis=0)
    d = np.tile(pts, (len(pts[241::97]), 1))
    keep = left_content(OCTAVIAN, c, d) == 4
    assert np.array_equal(left_content(OCTAVIAN, -c, -d) == 4, keep)
    c, d = c[keep], d[keep]
    rows = _canonical_rows(OCTAVIAN, c, d)
    assert len(rows) and np.array_equal(_canonical_rows(OCTAVIAN, -c, -d), rows)
    # sampled members c' of the size-240 class and of size-16 classes,
    # -c among them: over the whole ball, c' gives the rows c gives
    keys = _class_keys(OCTAVIAN, pts)
    reps, weight = _lattice_classes(OCTAVIAN, 2)
    classes = list(zip(reps[weight == 240], weight[weight == 240]))
    classes += list(zip(reps[weight == 16], weight[weight == 16]))[::27]
    assert len(classes) == 6

    def class_rows(i):
        c = np.repeat(pts[i:i + 1], len(pts), axis=0)
        keep = left_content(OCTAVIAN, c, pts) == 4
        return np.unique(_canonical_rows(OCTAVIAN, c[keep], pts[keep]), axis=0)

    for r, size in classes:
        members = np.flatnonzero((keys == keys[r]).all(axis=1))
        neg = np.flatnonzero((pts == -pts[r]).all(axis=1))[0]
        assert len(members) == size and neg in members
        expect = class_rows(r)
        assert len(expect)
        for i in {*members[1::size // 4], neg}:
            assert np.array_equal(class_rows(i), expect)


def test_octavian_coset_reps_bound_2():
    # 21,842 classes; the digest is of the rows computed when c still ran
    # over the 1,201 sign orbits {c, -c} instead of the 137 lattice classes
    rows = coset_reps(OCTAVIAN, 2)
    assert rows.dtype == np.int64 and rows.shape == (21842, 16)
    rows = rows.astype("<i8")
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "859e92aca4c2aef57a335ef5bd27a3e07cbc830df6fcf6f82a65d3a74cb5aa0e")


@pytest.mark.heavy
def test_octavian_coset_reps_bound_3():
    # one canonical row for each of the 337,682 primitive null vectors;
    # about 3 s under tracemalloc, with a traced peak of 90 MiB: the 41 MiB
    # of int64 rows twice (the rows and their sorted copy), after the
    # 26 MiB table is dropped
    tracemalloc.start()
    try:
        rows = coset_reps(OCTAVIAN, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 27
    assert rows.dtype == np.int64 and rows.shape == (337682, 16)
    rows = rows.astype("<i8")
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "d71a485c5782dcc1ae6f52968957c0a043dc30f8db3dcab8def65fe1c17dc0e6")


@pytest.mark.heavy
def test_octavian_coset_reps_bound_4():
    # the 2,736,242 classes of the closed-form count
    # (test_null_vector_counts_are_the_closed_form); about 25 s and 0.8 GB
    rows = coset_reps(OCTAVIAN, 4)
    assert rows.dtype == np.int64 and rows.shape == (2736242, 16)
    assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == (
        "0cd3425ee4a19d8621b1b8e277343b328fc7aaa4ea08aa2e19dc61d1a8e51155")


GOLDEN = Path(__file__).parent / "golden"


def test_octavian_canonical_pair_golden():
    # 300 seeded left-coprime pairs (random_element with max_coord2 4 and
    # 6, Euclid chains of 2 to 5 steps) and their canonical pairs,
    # captured before the replay of the chain became batched
    data = json.loads((GOLDEN / "canonical-pair-octavian.json").read_text())
    assert len(data["cases"]) == 300
    for case in data["cases"]:
        c, d = (AlgElem.from_coords2(8, case[k]) for k in ("c", "d"))
        got = canonical_pair(OCTAVIAN, c, d)
        assert [list(x.coords2) for x in got] == case["canonical"]


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_canonical_pair_rejects_non_coprime(ring):
    # a pair that is not left coprime has no class in Gamma_inf \ Gamma
    two, z0 = 2 * one(ring.dim), zero(ring.dim)
    for c, d in ((two, two), (z0, two), (two, z0), (z0, z0)):
        with pytest.raises(ValueError):
            canonical_pair(ring, c, d)
    assert (canonical_pair(ring, z0, -one(ring.dim))
            == canonical_pair(ring, z0, one(ring.dim)))


def test_word_errors():
    with pytest.raises(ValueError):
        build_w_ac(HURWITZ, 2 * one(4), zero(4))
    with pytest.raises(ValueError):
        matrix_of_word(GroupWord(OCTAVIAN, (Inv(),)))
