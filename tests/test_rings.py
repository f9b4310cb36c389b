"""Integer rings: membership, units, Euclid, coprimality, lattices."""

import dataclasses
import dis
import importlib
import inspect
import itertools
import math
import pkgutil
import random
import types
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from octavia.algebra import (
    AlgElem,
    _compiled,
    _mult2,
    _mult4,
    basis_unit,
    cd_multiply,
    conj,
    invert,
    norm_sq,
    one,
    zero,
)
import octavia
from octavia.rings import (
    EuclTrace,
    _cbar_packing,
    _class_keys,
    _conj_sign,
    _cosets,
    _decode2,
    _euclid,
    _euclid_chain,
    _euclid_rows,
    _exact_rows,
    _lattice_classes,
    _nearest2,
    _null_vectors,
    _primitive_rows,
    _unit_orbit_min,
    HURWITZ,
    OCTAVIAN,
    Z,
    ball_elements,
    common_right_divisors,
    commutator_ideal_index,
    is_in_commutator_ideal,
    enumerate_ball,
    is_left_coprime,
    is_member,
    is_right_coprime,
    is_unit,
    left_content,
    left_euclid,
    nearest,
    octavian_unit_classes,
    random_element,
    right_euclid,
    ring_by_name,
    shell_counts,
    units,
)


def test_ring_lookup():
    assert ring_by_name("hurwitz") is HURWITZ
    assert ring_by_name("Z") is Z
    assert ring_by_name("octavian") is OCTAVIAN
    with pytest.raises(ValueError):
        ring_by_name("gauss")


def test_unit_counts():
    assert len(units(Z)) == 2
    assert len(units(HURWITZ)) == 24
    assert len(units(OCTAVIAN)) == 240


def test_octavian_unit_partition():
    real, brandt, imag = octavian_unit_classes()
    assert (len(real), len(brandt), len(imag)) == (2, 112, 126)
    for u in real + brandt + imag:
        assert norm_sq(u) == 1 and is_member(OCTAVIAN, u)


def _signed(dim, slots):
    """The elements with doubled coordinates +-1 on slots and 0 elsewhere."""
    out = []
    for signs in itertools.product((1, -1), repeat=len(slots)):
        c2 = [0] * dim
        for k, sign in zip(slots, signs):
            c2[k] = sign
        out.append(AlgElem.from_coords2(dim, c2))
    return out


# The explicit unit lists of the paper, as literal data.  Hurwitz: +-1,
# +-e_k and (+-1 +- e1 +- e5 +- e6)/2.  Octavians: the Brandt numbers
# (+-1 +- e_i +- e_j +- e_k)/2 over the index triples, and the imaginary
# units (+-e_m +- e_n +- e_p +- e_q)/2 over the index quads together
# with +-e_r.
BRANDT_TRIPLES = ((1, 2, 4), (1, 3, 7), (1, 5, 6), (2, 3, 6), (2, 5, 7), (3, 4, 5), (4, 6, 7))
IMAGINARY_QUADS = ((3, 5, 6, 7), (2, 4, 5, 6), (2, 3, 4, 7), (1, 4, 5, 7), (1, 3, 4, 6), (1, 2, 6, 7), (1, 2, 3, 5))
HURWITZ_UNITS = [s * basis_unit(4, k) for k in range(4) for s in (1, -1)] + _signed(4, (0, 1, 2, 3))
OCTAVIAN_CLASSES = (
    [one(8), -one(8)],
    [u for t in BRANDT_TRIPLES for u in _signed(8, (0,) + t)],
    [u for q in IMAGINARY_QUADS for u in _signed(8, q)]
    + [s * basis_unit(8, r) for r in range(1, 8) for s in (1, -1)],
)


def _by_coords(elems):
    return tuple(sorted(elems, key=lambda u: u.coords))


def test_units_match_the_paper_lists():
    assert units(HURWITZ) == _by_coords(HURWITZ_UNITS)
    assert units(OCTAVIAN) == _by_coords(sum(OCTAVIAN_CLASSES, []))
    assert [set(c) for c in octavian_unit_classes()] == [set(c) for c in OCTAVIAN_CLASSES]
    assert all(c == _by_coords(c) for c in octavian_unit_classes())


@lru_cache(maxsize=None)
def _paper_glue_code(ring):
    """The XOR closure of the parities of the paper's units, sorted."""
    units_list = HURWITZ_UNITS if ring is HURWITZ else sum(OCTAVIAN_CLASSES, [])
    closed = {tuple(c % 2 for c in u.coords2) for u in units_list}
    while True:
        new = {tuple(x ^ y for x, y in zip(a, b)) for a in closed for b in closed} - closed
        if not new:
            return tuple(sorted(closed))
        closed |= new


def test_glue_codes_are_spanned_by_the_unit_parities():
    # the code derived from the simple roots against the one the paper's
    # units span; the octavian one is the [8,4] extended Hamming code
    for ring in (HURWITZ, OCTAVIAN):
        assert _cosets(ring) == _paper_glue_code(ring)
    assert _cosets(Z) == ((0,),)
    assert _cosets(HURWITZ) == ((0, 0, 0, 0), (1, 1, 1, 1))
    code = _cosets(OCTAVIAN)
    assert len(code) == 16
    assert sorted(sum(w) for w in code) == [0] + [4] * 14 + [8]


def test_ring_closure_under_multiplication(rng):
    from octavia.rings import D4_SIMPLE_ROOTS, E8_SIMPLE_ROOTS
    for ring, basis in ((HURWITZ, D4_SIMPLE_ROOTS), (OCTAVIAN, E8_SIMPLE_ROOTS)):
        for x in basis:
            for y in basis:
                assert is_member(ring, cd_multiply(x, y))
        us = units(ring)
        for _ in range(300):
            x, y = rng.choice(us), rng.choice(us)
            assert is_member(ring, cd_multiply(x, y))


def test_units_closed_and_invertible():
    for ring in (HURWITZ, OCTAVIAN):
        us = set(units(ring))
        for u in list(us)[:40]:
            assert conj(u) in us
            for w in list(us)[:10]:
                assert cd_multiply(u, w) in us


def test_membership_parity():
    assert is_member(HURWITZ, AlgElem.from_coords2(4, [1, 1, 1, 1]))
    assert not is_member(HURWITZ, AlgElem.from_coords2(4, [1, 1, 0, 0]))
    assert is_member(OCTAVIAN, one(8)) and is_member(OCTAVIAN, basis_unit(8, 3))


@pytest.mark.parametrize("ring", [HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_euclid_replays(ring, rng):
    for _ in range(150):
        a = random_element(ring, rng)
        c = random_element(ring, rng)
        if c.is_zero():
            continue
        for runner in (right_euclid, left_euclid):
            tr = runner(ring, a, c)
            assert tr.replay_ok()


@pytest.mark.parametrize("ring", [HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_euclid_replays_beyond_int64(ring, rng):
    # doubled coordinates near 2**70 run on Python ints
    for _ in range(3):
        a, c = (AlgElem.from_coords2(ring.dim, [
            p + 2 * rng.randint(-2 ** 69, 2 ** 69) for p in x.coords2])
            for x in (random_element(ring, rng), random_element(ring, rng)))
        if c.is_zero():
            continue
        for runner in (right_euclid, left_euclid):
            tr = runner(ring, a, c)
            assert tr.replay_ok() and len(tr.quotients) > 1


def test_euclid_gcd_matches_brute_force_hurwitz(rng):
    # |last divisor| = 1 iff no common one-sided factor with |g| > 1
    for _ in range(60):
        a = random_element(HURWITZ, rng, max_coord2=4)
        c = random_element(HURWITZ, rng, max_coord2=4)
        if a.is_zero() or c.is_zero():
            continue
        copr = is_right_coprime(HURWITZ, a, c)
        assert copr == (not common_right_divisors(HURWITZ, a, c, max_norm=9))


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_each_euclid_chain_runs_once(ring, rng, euclid_runs):
    a, c = random_element(ring, rng), random_element(ring, rng)
    while c.is_zero():
        c = random_element(ring, rng)
    tr = right_euclid(ring, a, c)
    assert right_euclid(ring, a, c) is tr
    assert is_right_coprime(ring, a, c) == (norm_sq(tr.last_divisor) == 1)
    assert euclid_runs == ["right"]
    assert is_left_coprime(ring, a, c) == (norm_sq(left_euclid(ring, a, c).last_divisor) == 1)
    assert euclid_runs == ["right", "left"]
    # a copy equal to the inputs finds the same trace
    assert right_euclid(ring, AlgElem(ring.dim, a.coords), AlgElem(ring.dim, c.coords)) is tr
    assert len(euclid_runs) == 2


def _unit_candidates(ring, rng):
    """Members and non-members of the ring, with zero, the units, random
    members and rationals over denominators 1, 2 and 4; of norm 1 and no
    member, also (3, 4, 0, ...) / 5 and, for the octavians, (3, 1, ..., 1) / 4
    (Z has no such element)."""
    dim = ring.dim
    xs = [zero(dim), one(dim), -one(dim), *units(ring)]
    xs += [random_element(ring, rng, rng.choice((2, 4))) for _ in range(300)]
    xs += [AlgElem(dim, [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4))) for _ in range(dim)])
           for _ in range(300)]
    if dim > 1:
        xs.append(AlgElem(dim, [Fraction(3, 5), Fraction(4, 5)] + [0] * (dim - 2)))
    if dim == 8:
        xs.append(AlgElem(8, [Fraction(3, 4)] + [Fraction(1, 4)] * 7))
    return xs


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_integer_unit_tests_match_norm_sq(ring, rng):
    # is_unit and the coprimality tests compare integer norms; the Fraction
    # norm_sq is their oracle
    xs = _unit_candidates(ring, rng)
    kinds = set()
    for x in xs:
        unit_norm = norm_sq(x) == 1
        member = is_member(ring, x)
        assert is_unit(ring, x) == (member and unit_norm)
        kinds.add((member, unit_norm, x.den))
        if not member:
            continue
        if not x.is_zero():  # (x, 0): coprime iff x is a unit
            assert is_right_coprime(ring, x, zero(ring.dim)) == unit_norm
            assert is_left_coprime(ring, x, zero(ring.dim)) == unit_norm
        c = rng.choice(xs)
        if is_member(ring, c) and not c.is_zero():
            for side, coprime in (("right", is_right_coprime), ("left", is_left_coprime)):
                last = _euclid(ring, x, c, side).last_divisor
                assert coprime(ring, x, c) == (norm_sq(last) == 1)
    # members and non-members of unit and other norms, over den 1, 2 and 4
    expect = {(True, True), (True, False), (False, False)}
    if ring.dim > 1:
        expect.add((False, True))
    assert {k[:2] for k in kinds} == expect
    assert {1, 2, 4} <= {k[2] for k in kinds}


def test_euclid_errors_raise_on_every_call(euclid_runs):
    third = AlgElem.make(4, [Fraction(1, 3), 0, 0, 0])
    for _ in range(3):
        with pytest.raises(ZeroDivisionError):
            right_euclid(HURWITZ, one(4), zero(4))
        with pytest.raises(ValueError):
            left_euclid(HURWITZ, third, one(4))
        with pytest.raises(ValueError):
            is_right_coprime(HURWITZ, one(4), third)
    assert euclid_runs == []
    assert _euclid.cache_info().currsize == 0


def _row_chains(chain, count):
    """Per row of a recorded _euclid_rows chain, its (q2, r2) steps as
    tuples of ints."""
    rows = [[] for _ in range(count)]
    for idx, q, r in chain:
        for i, qi, ri in zip(idx.tolist(), q.tolist(), r.tolist()):
            rows[i].append((tuple(qi), tuple(ri)))
    return rows


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_euclid_traces_match_batched_chains(ring, rng, nprng):
    # replay_ok shares the integer product with the one-pair chain, so the
    # batch kernel (_product_table gathers, _decode2) is the oracle of the
    # trace: random pairs, small coordinates, where nearest-point ties are
    # frequent, and entries beyond the int64 bound of _exact_rows
    dim = ring.dim
    bound = math.isqrt((2 ** 63 - 1) // (4 * dim + dim * dim))
    big = [AlgElem.from_coords2(dim, row) for row in _ring_rows(ring, nprng, 4 * bound, 200)]
    cases = [
        ([(random_element(ring, rng), random_element(ring, rng)) for _ in range(1000)], np.int64),
        ([(random_element(ring, rng, 2), random_element(ring, rng, 2)) for _ in range(1000)],
         np.int64),
        (list(zip(big[:100], big[100:])), object),
    ]
    for pairs, dtype in cases:
        pairs = [(a, c) for a, c in pairs if not c.is_zero()]
        first2 = [a.coords2 for a, _ in pairs]
        c2 = [c.coords2 for _, c in pairs]
        assert _exact_rows(first2, c2)[0].dtype == dtype
        for side in ("right", "left"):
            _, chain = _euclid_rows(ring, first2, c2, side, record=True)
            for (a, c), steps in zip(pairs, _row_chains(chain, len(pairs))):
                tr = _euclid(ring, a, c, side)
                assert [q.coords2 for q in tr.quotients] == [q for q, _ in steps]
                assert [r.coords2 for r in tr.remainders] == [r for _, r in steps[:-1]]
                assert not any(steps[-1][1])


def test_euclid_rejects_products_off_the_lattice():
    # (1/2, 0, 0, 0) is no Hurwitz element: 4 (1/2)(1/2) = 1 is odd, and
    # both kernels refuse it on either side
    half = (1, 0, 0, 0)
    for side in ("right", "left"):
        with pytest.raises(ArithmeticError, match="left the half-integer lattice"):
            _euclid_chain(HURWITZ, half, half, side)
        with pytest.raises(ArithmeticError, match="left the half-integer lattice"):
            _euclid_rows(HURWITZ, [half], [half], side)


def test_single_pairs_stay_off_the_row_kernel(rng, monkeypatch):
    # one pair runs on Python ints and only batches reach the numpy
    # kernel, so with the kernel disabled every one-pair path still works
    class RowKernel(Exception):
        pass

    def disabled(*args, **kwargs):
        raise RowKernel

    monkeypatch.setattr(octavia.algebra, "_mult4", disabled)
    for module in (octavia.algebra, octavia.rings):
        monkeypatch.setattr(module, "_mult2", disabled)
    monkeypatch.setattr(octavia.rings, "_decode2", disabled)
    _euclid.cache_clear()
    for ring in (Z, HURWITZ, OCTAVIAN):
        a, c, d = (random_element(ring, rng) for _ in range(3))
        while c.is_zero():
            c = random_element(ring, rng)
        assert right_euclid(ring, a, c).quotients
        assert left_euclid(ring, a, c).quotients
        assert is_left_coprime(ring, d, c) in (True, False)
        assert is_member(ring, nearest(ring, [rng.uniform(-3, 3) for _ in range(ring.dim)]))
        with pytest.raises(RowKernel):
            left_content(ring, [c.coords2], [d.coords2])


def test_replay_rejects_first_remainder_not_below_divisor():
    # 5 = 4 * 2 - 3, 2 = 1 * 3 - 1, 3 = 3 * 1: exact, and 9 > 1, but the
    # first remainder is not smaller than the divisor 2
    n = lambda k: AlgElem.from_coords2(1, [2 * k])
    forged = EuclTrace("right", Z, (n(5), n(2)), (n(4), n(1), n(3)), (n(3), n(1)))
    assert not forged.replay_ok()
    assert right_euclid(Z, n(5), n(2)).replay_ok()


def _element_replay_ok(tr):
    """replay_ok as it ran on AlgElems, the oracle of the doubled-integer
    replay: the chain re-substituted through cd_multiply, and the norms
    compared as |num|^2 over den^2.  It checks no lattice membership."""
    first, c = tr.inputs
    if len(tr.quotients) != len(tr.remainders) + 1:
        return False
    seq = [first, c, *tr.remainders, zero(tr.ring.dim)]
    right = tr.side == "right"
    for q, prev, cur, nxt in zip(tr.quotients, seq, seq[1:], seq[2:]):
        if prev != (cd_multiply(q, cur) if right else cd_multiply(cur, q)) - nxt:
            return False
    norms = [(sum(v * v for v in x.num), x.den * x.den) for x in seq[1:-1]]
    return (all(n > 0 for n, _ in norms)
            and all(n * e > m * d for (n, d), (m, e) in zip(norms, norms[1:])))


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_replay_matches_element_replay(ring, rng):
    # seeded traces on both sides, and each tampered: the other side's
    # replay (the octavians do not commute), a quotient moved by one, a
    # remainder negated, the chain cut short
    seen = set()
    for _ in range(60):
        a, c = random_element(ring, rng), random_element(ring, rng)
        if c.is_zero():
            continue
        for runner in (right_euclid, left_euclid):
            tr = runner(ring, a, c)
            other = "left" if tr.side == "right" else "right"
            variants = [tr, dataclasses.replace(tr, side=other),
                        dataclasses.replace(tr, quotients=(tr.quotients[0] + one(ring.dim),
                                                           *tr.quotients[1:]))]
            if tr.remainders:
                variants += [dataclasses.replace(tr, remainders=(-tr.remainders[0],
                                                                 *tr.remainders[1:])),
                             dataclasses.replace(tr, quotients=tr.quotients[:-1],
                                                 remainders=tr.remainders[:-1])]
            for v in variants:
                got = v.replay_ok()
                assert got == _element_replay_ok(v)
                seen.add(got)
    assert seen == {True, False}


def test_forged_traces_do_not_replay():
    # each forgery returns False and raises nothing
    n = lambda k: AlgElem.from_coords2(1, [2 * k])
    third = lambda k: AlgElem(1, [Fraction(k, 3)])
    half = AlgElem.from_coords2(4, (1, 0, 0, 0))  # 1/2, no Hurwitz element
    forged = {
        # 3 = (4/3) 3 - 1, 3 = 3 * 1: exact with decreasing norms, but the
        # quotient 4/3 is not half-integral, so no lattice chain has it
        "non-half-integral quotient": EuclTrace("right", Z, (n(3), n(3)),
                                                (third(4), n(3)), (n(1),)),
        # (1/2)(1/2) = 1/4 leaves the half-integer lattice: an odd product
        "odd product": EuclTrace("right", HURWITZ, (zero(4), half), (half,), ()),
        "too few quotients": EuclTrace("right", Z, (n(5), n(2)), (n(3),), (n(1),)),
        "too many quotients": EuclTrace("right", Z, (n(4), n(2)), (n(2), n(1)), ()),
        # 4 = 1 * 2 - (-2), 2 = (-1)(-2): exact, but |r1| = |c|
        "norms not decreasing": EuclTrace("right", Z, (n(4), n(2)), (n(1), n(-1)),
                                          (n(-2),)),
        "element of another dimension": EuclTrace("right", Z, (one(4), n(1)), (n(1),), ()),
        "zero divisor": EuclTrace("right", Z, (n(0), n(0)), (n(1),), ()),
    }
    for name, tr in forged.items():
        assert tr.replay_ok() is False, name
    # the element replay, which checks no membership, accepts the first
    assert _element_replay_ok(forged["non-half-integral quotient"])


def _fraction_divisor_scan(ring, a, c, max_norm):
    out = []
    for g in ball_elements(ring, max_norm):
        if norm_sq(g) > 1:
            gi = invert(g)
            if is_member(ring, cd_multiply(a, gi)) and is_member(ring, cd_multiply(c, gi)):
                out.append(g)
    return sorted(out, key=lambda u: u.coords)


def test_common_right_divisors_match_fraction_scan(rng):
    # random pairs, and pairs built with a common right factor g of the ball
    cases = []
    for ring, max_norm, n in ((Z, 16, 4), (HURWITZ, 4, 4), (OCTAVIAN, 2, 1)):
        divisors = [g for g in ball_elements(ring, max_norm) if norm_sq(g) > 1]
        for _ in range(n):
            a, c = (random_element(ring, rng, max_coord2=4) for _ in range(2))
            g = rng.choice(divisors)
            cases.append((ring, a, c, max_norm))
            cases.append((ring, cd_multiply(a, g), cd_multiply(c, g), max_norm))
    for ring, a, c, max_norm in cases:
        assert common_right_divisors(ring, a, c, max_norm) == \
            _fraction_divisor_scan(ring, a, c, max_norm)
    with pytest.raises(ValueError):
        common_right_divisors(HURWITZ, AlgElem.from_coords2(4, [1, 0, 0, 0]), one(4))


def test_nearest_properties(rng):
    for ring in (Z, HURWITZ, OCTAVIAN):
        pts = enumerate_ball(ring, 4 if ring is OCTAVIAN else 9).astype(float) / 2.0
        for _ in range(10):
            x = np.array([rng.uniform(-1, 1) for _ in range(ring.dim)])
            best = nearest(ring, x)
            assert is_member(ring, best)
            d0 = sum((float(c) - t) ** 2 for c, t in zip(best.coords, x))
            # no ball element is closer
            assert ((pts - x) ** 2).sum(axis=1).min() >= d0 - 1e-9


def test_nearest_tie_takes_least_coords():
    assert nearest(Z, [Fraction(1, 2)]) == AlgElem.make(1, [0])
    assert nearest(Z, [Fraction(-3, 2)]) == AlgElem.make(1, [-2])
    # 0 and (1 + e1 + e5 + e6)/2 tie at squared distance 1/4
    assert nearest(HURWITZ, [Fraction(1, 4)] * 4) == zero(4)


def _brute_nearest2(ring, num, den):
    """(doubled coordinates, tie count) of the ring points nearest to the
    row num / den, by search over every glue-code coset.  A point whose
    coordinate i lies more than 1 from x_i = num_i / den moves 2 towards
    x_i and comes strictly nearer within its coset, so every nearest
    point has each coordinate among the values of its coset's parity
    within 1 of x_i.  Exact on ints and on floats (Fraction); the least
    (squared distance, coordinates) wins."""
    x = [Fraction(n) / Fraction(den) for n in num]
    scale = math.lcm(*(t.denominator for t in x))
    a = [int(t * scale) for t in x]
    cands = []
    for code in _cosets(ring):
        axes = [[v for v in range(math.ceil(t) - 1, math.floor(t) + 2)
                 if v % 2 == b and abs(v - t) <= 1] for t, b in zip(x, code)]
        for v in itertools.product(*axes):
            cands.append((sum((vi * scale - ai) ** 2 for vi, ai in zip(v, a)), v))
    best = min(cands)
    return best[1], sum(d == best[0] for d, _ in cands)


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_decode2_matches_brute_force_nearest(ring, nprng):
    dim, m = ring.dim, 120
    num = nprng.integers(-60, 61, (m, dim))
    den = nprng.integers(1, 31, m)
    # exact ties: half-integer and integer targets
    num[:40] = 2 * nprng.integers(-5, 6, (40, dim)) + 1
    den[:40] = 2
    num[40:60] = nprng.integers(-5, 6, (20, dim))
    den[40:60] = 1
    expect = [_brute_nearest2(ring, n.tolist(), int(d)) for n, d in zip(num, den)]
    assert sum(ties > 1 for _, ties in expect) >= 10
    expect = np.array([v for v, _ in expect])
    got = _decode2(ring, num, den)
    assert got.dtype == np.int64 and np.array_equal(got, expect)
    big = 10 ** 20  # the same targets as Python-int object rows
    got = _decode2(ring, num.astype(object) * big, den.astype(object) * big)
    assert got.dtype == object and np.array_equal(got, expect)
    # the scalar decoder of nearest on the same targets num / (2 den)
    got = [nearest(ring, [Fraction(n, 2 * d) for n in row]).coords2
           for row, d in zip(num.tolist(), den.tolist())]
    assert got == list(map(tuple, expect.tolist()))
    targets = nprng.normal(scale=5.0, size=(m, dim))
    expect = np.array([_brute_nearest2(ring, t.tolist(), 0.5)[0] for t in targets])
    assert np.array_equal(_decode2(ring, 2.0 * targets, np.ones(m)), expect)
    assert [nearest(ring, t).coords2 for t in targets] == list(map(tuple, expect.tolist()))


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_nearest2_kernel_matches_decode2(ring, rng):
    # the compiled one-point decoder against the batch decoder on Python-int
    # object rows: entries with zeros, small and beyond-int64 values, over
    # denominators 1 and 2 (exact ties), small and beyond int64
    decode = _nearest2(ring)
    nums, dens = [], []
    for _ in range(600):
        nums.append([rng.choice((0, rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)))
                     for _ in range(ring.dim)])
        dens.append(rng.choice((1, 2, rng.randint(1, 40), rng.randint(1, 2 ** 70))))
    expect = _decode2(ring, np.array(nums, dtype=object), np.array(dens, dtype=object))
    got = [decode(n, d) for n, d in zip(nums, dens)]
    assert got == list(map(tuple, expect.tolist()))
    assert all(type(v) is int for row in got for v in row)
    with pytest.raises(ValueError):
        decode([1] * (ring.dim + 1), 1)


def test_shell_counts_oracles():
    assert shell_counts(HURWITZ, 5) == [24, 24, 96, 24, 144]
    assert shell_counts(OCTAVIAN, 2) == [240, 2160]
    assert shell_counts(Z, 4) == [2, 0, 0, 2]


def test_enumerate_ball_matches_shell_counts():
    for ring, n_max in ((Z, 40), (HURWITZ, 9), (OCTAVIAN, 3)):
        pts = enumerate_ball(ring, n_max)
        norms = (pts * pts).sum(axis=1) // 4
        assert [(norms == k).sum() for k in range(1, n_max + 1)] == \
            shell_counts(ring, n_max)


def test_z_ball_is_the_even_integers():
    # Z goes through the same glue-coset meshgrid, with glue vector (0,)
    for max_norm in range(41):
        m = int(np.floor(np.sqrt(max_norm)))
        expect = 2 * np.arange(-m, m + 1, dtype=np.int64).reshape(-1, 1)
        expect = expect[np.lexsort((expect[:, 0], expect[:, 0] ** 2))]
        got = enumerate_ball(Z, max_norm)
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)


def _lru_caches() -> dict:
    """Every lru_cache wrapper defined in an octavia module, by bare name."""
    found = {}
    for info in pkgutil.iter_modules(octavia.__path__):
        mod = importlib.import_module(f"octavia.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                if name in found:
                    raise RuntimeError(f"two octavia caches are named {name}")
                found[name] = obj
    return found


LRU_CACHES = _lru_caches()

# Arguments for the caches that take some; a cache missing here fails
CACHE_ARGS = {
    "structure_table": (4,),
    "_table_rows": (8,),
    "_product_table": (8,),
    "_structure_float": (4,),
    "_cosets": (OCTAVIAN,),
    "units": (HURWITZ,),
    "_coset_matrix": (OCTAVIAN,),
    "_decode_tables": (OCTAVIAN,),
    "_conj_sign": (8,),
    "_nearest2": (OCTAVIAN,),
    "_product_kernel": (8,),
    "_halving_kernel": (8,),
    "delta": (4,),
    "minus_delta": (4,),
    "_euclid": (HURWITZ, AlgElem.from_coords2(4, (6, 2, 0, 0)),
                AlgElem.from_coords2(4, (2, 2, 2, 0)), "right"),
    "enumerate_ball": (HURWITZ, 1),
    "_lattice_classes": (HURWITZ, 2),
    "_basis_adjugate": (OCTAVIAN,),
    "_coded_units": (4,),
    "sandwich_map": (basis_unit(8, 3),),
    "right_mult_map": (basis_unit(8, 3),),
    "_unit_matrix2": (octavia.rootsys.sandwich_map, basis_unit(8, 3)),
    "root_basis": ("e8",),
    "all_roots": ("e8",),
    "_root_closure": ("e8",),
    "_class_composites": (True,),
    "_d_side": (HURWITZ, 2),
    "_ball_data": (HURWITZ, 2),
    "_coprime_key_terms": (OCTAVIAN, 1),
    "_coset_class_words": (HURWITZ, 2),
    "_grid_maps": (HURWITZ,),
    "_grid_orbits": (HURWITZ, 4),
    "_midpoint_grids": (HURWITZ, 4),
}


def _is_compiled_kernel(value) -> bool:
    """True for a function as algebra._compiled makes it: no closure, no
    defaults, no attributes, no global or attribute reads, and globals that
    hold only the empty builtins and the function itself.  Its result then
    depends on its arguments alone."""
    return (isinstance(value, types.FunctionType) and value.__closure__ is None
            and value.__defaults__ is None and value.__kwdefaults__ is None
            and not value.__dict__ and not value.__code__.co_names
            and value.__globals__ == {"__builtins__": {}, value.__name__: value})


def test_kernels_are_compiled_and_loop_free():
    # every generated kernel reads its arguments only: no builtins, so no
    # raise, min or abs, and no loop or comprehension in its code
    kernels = [octavia.algebra._product_kernel(d) for d in (1, 2, 4, 8, 16)]
    kernels += [octavia.algebra._halving_kernel(d) for d in (1, 2, 4, 8, 16)]
    kernels += [_nearest2(ring) for ring in (Z, HURWITZ, OCTAVIAN)]
    assert all(map(_is_compiled_kernel, kernels))
    loops = {"FOR_ITER", "JUMP_BACKWARD", "JUMP_BACKWARD_NO_INTERRUPT"}
    for k in kernels:
        assert not any(isinstance(c, types.CodeType) for c in k.__code__.co_consts)
        assert not any(op.opname in loops for op in dis.get_instructions(k))


def _first_mutable(value):
    """Where the first mutable object reachable from value through tuples,
    frozensets, mappings and frozen dataclasses sits, or None.  Writable
    arrays, lists, dicts, sets, functions other than a compiled kernel and
    objects of any other kind count as mutable."""
    if isinstance(value, np.ndarray):
        if value.flags.writeable:
            return "a writable array"
        try:  # the flag must stay cleared, not just be cleared
            value.flags.writeable = True
        except ValueError:
            return None
        value.flags.writeable = False
        return "an array whose writeable flag can be set back"
    if isinstance(value, (int, float, complex, str, bytes, Fraction, np.generic, type(None))):
        return None
    if _is_compiled_kernel(value):
        return None
    if isinstance(value, (tuple, frozenset)):
        items = enumerate(value)
    elif isinstance(value, Mapping) and not isinstance(value, dict):
        items = itertools.chain(((f"key {k!r}", k) for k in value), value.items())
    elif dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
    else:
        return f"a {type(value).__name__}"
    for label, item in items:
        where = _first_mutable(item)
        if where is not None:
            return f"[{label!r}] {where}"
    return None


def test_first_mutable_accepts_only_compiled_kernels():
    kernel = _compiled("f", "def f(x):\n    return [x + 1]\n")
    assert _first_mutable((kernel,)) is None

    def closure(x):
        return kernel(x)

    widened = _compiled("f", "def f(x):\n    return x\n")
    widened.__globals__["state"] = []
    tagged = _compiled("f", "def f(x):\n    return x\n")
    tagged.state = []
    # every other function stays mutable: module functions, lambdas,
    # closures, defaults, global reads, extra globals or attributes
    for value in (len, _first_mutable, lambda x: x, closure,
                  _compiled("f", "def f(x=[]):\n    return x\n"),
                  _compiled("f", "def f(x):\n    return len(x)\n"), widened, tagged):
        assert _first_mutable(value) == f"a {type(value).__name__}"


def test_cache_args_name_live_caches():
    # a stale entry, left behind when its cache goes, would pass silently
    assert sorted(set(CACHE_ARGS) - set(LRU_CACHES)) == []


@pytest.mark.parametrize("name", sorted(LRU_CACHES))
def test_cached_arrays_are_read_only(name):
    # every caller shares a cached value, so a write must fail instead of
    # corrupting later results: enumerate_ball(HURWITZ, 1)[1] = 0 made
    # units(HURWITZ) find 23 units, and _table_rows(8)[1][1][5] = -1 made
    # every later cd_multiply(e1, e5) return -e6
    fn = LRU_CACHES[name]
    if inspect.signature(fn).parameters:
        assert name in CACHE_ARGS, f"{name} takes arguments; add them to CACHE_ARGS"
        value = fn(*CACHE_ARGS[name])
    else:
        value = fn()
    assert _first_mutable(value) is None


def test_vectorized_left_content_matches_scalar(rng):
    # Z: the gcd of the doubled coordinates is 2 exactly on coprime pairs
    pts = enumerate_ball(Z, 400)
    c, d = np.repeat(pts, len(pts), axis=0), np.tile(pts, (len(pts), 1))
    assert np.array_equal(left_content(Z, c, d) == 4,
                          np.gcd(c[:, 0], d[:, 0]) == 2)
    # 2,500 octavian rows span several _mult4 blocks
    for ring, draws in ((HURWITZ, 60), (OCTAVIAN, 2500)):
        cs, ds, expect = [], [], []
        for _ in range(draws):
            c = random_element(ring, rng, max_coord2=3)
            d = random_element(ring, rng, max_coord2=3)
            if c.is_zero() or d.is_zero():
                continue
            cs.append(c.coords2)
            ds.append(d.coords2)
            expect.append(is_left_coprime(ring, d, c))
        got = left_content(ring, np.array(cs), np.array(ds)) == 4
        assert list(got) == expect


def _trace_coprime(ring, x, y, side):
    """Coprimality read off the recorded Euclid trace, with shortcuts for
    y = 0 and unit y."""
    if y.is_zero():
        return norm_sq(x) == 1
    if norm_sq(y) == 1:
        return True
    runner = right_euclid if side == "right" else left_euclid
    return norm_sq(runner(ring, x, y).last_divisor) == 1


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_scalar_coprimality_matches_trace(ring, rng):
    us = units(ring)
    for _ in range(150):
        x, y = (random_element(ring, rng, max_coord2=4) for _ in range(2))
        k = rng.randrange(4)
        if k == 0:
            y = zero(ring.dim)
        elif k == 1:
            y = rng.choice(us)
        if x.is_zero() and y.is_zero():
            continue
        assert is_left_coprime(ring, x, y) == _trace_coprime(ring, x, y, "left")
        assert is_right_coprime(ring, x, y) == _trace_coprime(ring, x, y, "right")
    with pytest.raises(ValueError):
        is_left_coprime(ring, zero(ring.dim), zero(ring.dim))


@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_scalar_coprimality_matches_batched_rows(ring, rng):
    # the batched content, which keeps no trace, as the oracle: 4 means
    # coprime, and a row with y = 0 reads 4 |x|^2
    us = units(ring)
    pairs = []
    while len(pairs) < 200:
        x, y = (random_element(ring, rng, max_coord2=4) for _ in range(2))
        k = rng.randrange(4)
        if k == 0:
            y = zero(ring.dim)
        elif k == 1:
            y = rng.choice(us)
        if not (x.is_zero() and y.is_zero()):
            pairs.append((x, y))
    xs = np.array([x.coords2 for x, _ in pairs])
    ys = np.array([y.coords2 for _, y in pairs])
    for side, scalar in (("left", is_left_coprime), ("right", is_right_coprime)):
        expect = list(_euclid_rows(ring, xs, ys, side)[0] == 4)
        assert [scalar(ring, x, y) for x, y in pairs] == expect
        assert 0 < sum(expect) < len(pairs)


def test_coprimality_rejects_non_members():
    # norm-1 inputs that are not ring elements
    x = AlgElem.make(4, [Fraction(3, 5), Fraction(4, 5), 0, 0])
    with pytest.raises(ValueError):
        is_left_coprime(HURWITZ, x, zero(4))
    with pytest.raises(ValueError):
        is_right_coprime(HURWITZ, AlgElem.make(4, [Fraction(1, 3), 0, 0, 0]), one(4))


def test_batched_coprimality_on_octavian_balls(rng):
    # R = 1 holds only units and 0; R = 2 adds non-coprime pairs
    for radius, count in ((1, 2000), (2, 300)):
        pts = enumerate_ball(OCTAVIAN, radius)
        pairs = [(rng.randrange(len(pts)), rng.randrange(len(pts)))
                 for _ in range(count)]
        pairs = [(i, j) for i, j in pairs if pts[i].any() or pts[j].any()]
        ci, di = np.array(pairs).T
        got = left_content(OCTAVIAN, pts[ci], pts[di]) == 4
        expect = [is_left_coprime(OCTAVIAN, AlgElem.from_coords2(8, pts[j]),
                                  AlgElem.from_coords2(8, pts[i]))
                  for i, j in pairs]
        assert list(got) == expect


def _ring_rows(ring, nprng, m, count):
    """count ring elements as doubled rows with every |entry| <= m: a
    glue vector plus even offsets."""
    code = np.array(_cosets(ring))
    glue = code[nprng.integers(0, len(code), count)]
    return glue + 2 * nprng.integers(-(m // 2), m // 2, (count, ring.dim))


@pytest.mark.parametrize("ring", [HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_exact_rows_int64_up_to_the_proven_bound(ring, nprng, monkeypatch):
    # every Euclid intermediate stays within (4 dim + dim^2) m^2, so rows
    # up to the largest m with that below 2^63 run on int64, and give the
    # contents and chains of the Python-int object path
    dim = ring.dim
    m = math.isqrt((2 ** 63 - 1) // (4 * dim + dim * dim))
    c2 = _ring_rows(ring, nprng, m, 300)
    d2 = _ring_rows(ring, nprng, m, 300)
    # rows at the largest norm the bound allows: every entry +-m
    c2[:100] = m * nprng.choice([-1, 1], (100, dim))
    d2[50:150] = m * nprng.choice([-1, 1], (100, dim))
    assert np.abs(c2).max() == m
    assert all(r.dtype == np.int64 for r in _exact_rows(c2, d2))
    assert all(r.dtype == object for r in _exact_rows(c2, d2 + (d2 == m)))
    runs = [_euclid_rows(ring, d2, c2, side, record=True) for side in ("left", "right")]
    monkeypatch.setattr(octavia.rings, "_exact_rows",
                        lambda *rows: [np.asarray(r).astype(object) for r in rows])
    for side, (content, chain) in zip(("left", "right"), runs):
        obj_content, obj_chain = _euclid_rows(ring, d2, c2, side, record=True)
        assert obj_content.dtype == object and np.array_equal(content, obj_content)
        assert len(chain) == len(obj_chain) > 2
        for step, obj_step in zip(chain, obj_chain):
            assert all(np.array_equal(a, b) for a, b in zip(step, obj_step))


@pytest.mark.parametrize("ring, radius, count", [
    (Z, 9, 4), (HURWITZ, 4, 8), (HURWITZ, 6, 18), (HURWITZ, 9, 40), (HURWITZ, 16, 109)],
    ids=["z-9", "hurwitz-4", "hurwitz-6", "hurwitz-9", "hurwitz-16"])
def test_lattice_classes_are_the_unit_orbits_of_associative_rings(ring, radius, count):
    # c^-bar H = c'^-bar H iff c' = e c for a unit e, so the series rows
    # of Z and the Hurwitz ring stay those of the unit orbits
    reps, weight = _lattice_classes(ring, radius)
    pts2 = enumerate_ball(ring, radius)  # the orbit oracle: least members e c
    orbit_reps = np.flatnonzero((_unit_orbit_min(ring, pts2) == pts2).all(axis=1))
    orbit_weight = np.where(pts2[orbit_reps].any(axis=1), len(units(ring)), 1)
    assert len(reps) == count
    for got, expect in ((reps, orbit_reps), (weight, orbit_weight)):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)


@pytest.mark.parametrize("radius, sizes", [
    (1, {1: 1, 240: 1}), (2, {1: 1, 16: 135, 240: 1}),
    (3, {1: 1, 6: 1120, 16: 135, 240: 1})], ids=["1", "2", "3"])
def test_octavian_lattice_class_counts(radius, sizes):
    # 2, 137 and 1,257 rows against 121, 1,201 and 4,561 orbits {c, -c}
    reps, weight = _lattice_classes(OCTAVIAN, radius)
    size, count = np.unique(weight, return_counts=True)
    assert dict(zip(size.tolist(), count.tolist())) == sizes
    assert reps[0] == 0 and weight[0] == 1 and np.all(np.diff(reps) > 0)
    assert weight.sum() == len(enumerate_ball(OCTAVIAN, radius))


def _minimal_vector_classes(ring, radius):
    """The partition by the exact set of minimal vectors c^-bar e of
    c^-bar O (doubled, Python ints): first member and size per class."""
    pts2 = enumerate_ball(ring, radius)
    e2 = enumerate_ball(ring, 1)[1:]
    cbar = np.repeat(pts2 * _conj_sign(ring.dim), len(e2), axis=0)
    prods = _mult2(cbar, np.tile(e2, (len(pts2), 1))).reshape(len(pts2), -1, ring.dim)
    classes = {}
    for i, block in enumerate(prods.tolist()):
        classes.setdefault(frozenset(map(tuple, block)), []).append(i)
    firsts = sorted(v[0] for v in classes.values())
    sizes = {v[0]: len(v) for v in classes.values()}
    return np.array(firsts), np.array([sizes[i] for i in firsts])


@pytest.mark.parametrize("ring, radius", [(Z, 16), (HURWITZ, 9), (OCTAVIAN, 2)],
                         ids=["z", "hurwitz", "octavian"])
def test_lattice_classes_match_exact_minimal_vector_sets(ring, radius):
    # the packed float keys decide no class by a tolerance: they give the
    # partition of exact integer sets
    reps, weight = _lattice_classes(ring, radius)
    expect_reps, expect_weight = _minimal_vector_classes(ring, radius)
    assert np.array_equal(reps, expect_reps) and np.array_equal(weight, expect_weight)


@pytest.mark.parametrize("ring, radius", [(Z, 50), (HURWITZ, 9), (OCTAVIAN, 2)],
                         ids=["z-50", "hurwitz-9", "octavian-2"])
def test_coprime_classes_match_one_euclid_row_per_pair(ring, radius, pair_table):
    # the primitive null vectors against the keys of the pairs of the ball
    # (the brute-force pair table), each pair flagged by one Euclid row:
    # the left-coprime keys, each the key of #units pairs
    keys, mult, coprime = pair_table(ring, radius)
    flag = coprime > 0
    n = ring.dim
    rows = _null_vectors(ring, radius)
    assert rows.dtype == np.int64 and rows.shape == (flag.sum(), n + 2)
    got = rows[:, [n, n + 1, *range(n)]]  # as (k, l, 2x)
    assert np.array_equal(got[np.lexsort(got.T[::-1])], keys[flag])
    assert np.all(mult[flag] == len(units(ring)))
    assert 0 < flag.sum() < len(flag)


def _box_scan_ball(ring, max_norm):
    """enumerate_ball by a box scan: per glue codeword, every doubled
    coordinate vector of its parities in the cube |x2_i| <= 2 sqrt(max_norm),
    kept inside the ball, then sorted by norm and lexicographically."""
    rmax = math.isqrt(4 * max_norm)
    blocks = []
    for cw in _cosets(ring):
        axes = [np.arange(-rmax + (rmax + p) % 2, rmax + 1, 2) for p in cw]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ring.dim)
        blocks.append(grid[(grid * grid).sum(axis=1) <= 4 * max_norm])
    pts = np.concatenate(blocks)
    return pts[np.lexsort(tuple(pts.T[::-1]) + ((pts * pts).sum(axis=1),))]


@pytest.mark.parametrize("ring, radii", [(Z, range(0, 40)), (HURWITZ, range(0, 17)),
                                         (OCTAVIAN, range(0, 4))],
                         ids=["z", "hurwitz", "octavian"])
def test_enumerate_ball_matches_the_box_scan(ring, radii):
    # the meet-in-the-middle shells, joined, give the ball of the box scan
    # row for row
    for r in radii:
        pts = enumerate_ball(ring, r)
        assert pts.dtype == np.int64 and np.array_equal(pts, _box_scan_ball(ring, r))


def _mobius(m):
    """The Moebius function of m >= 1, by trial division."""
    sign, p = 1, 2
    while p * p <= m:
        if m % (p * p) == 0:
            return 0
        if m % p == 0:
            m //= p
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


@pytest.mark.parametrize("ring, radius", [(Z, 400), (HURWITZ, 9), (OCTAVIAN, 3)],
                         ids=["z-400", "hurwitz-9", "octavian-3"])
def test_null_vector_counts_are_the_closed_form(ring, radius):
    # the primitive vectors of the shell kl: sum over m | gcd(k, l) of
    # mu(m) N(kl / m^2), N the shell counts, cell by cell; the two unit
    # vectors (0, 0, 1) and (1, 0, 0) once each.  The rows come in the
    # order (max(k, l), k, l, 2x)
    n = ring.dim
    rows = _null_vectors(ring, radius)
    k, l = rows[:, n], rows[:, n + 1]
    order = np.lexsort(tuple(rows[:, :n].T[::-1]) + (l, k, np.maximum(k, l)))
    assert np.array_equal(order, np.arange(len(rows)))
    cells, got = np.unique(k * (radius + 1) + l, return_counts=True)
    got = dict(zip(cells.tolist(), got.tolist()))
    counts = [1] + shell_counts(ring, radius * radius)  # N(0) = 1
    want = {1: 1, radius + 1: 1}
    for a, b in itertools.product(range(1, radius + 1), repeat=2):
        g = math.gcd(a, b)
        c = sum(_mobius(m) * counts[a * b // (m * m)] for m in range(1, g + 1) if g % m == 0)
        if c:
            want[a * (radius + 1) + b] = c
    assert got == want


def test_primitive_rows_reject_points_off_the_lattice():
    # (1/2) e1 is no Hurwitz element; gcd(k, l) = 2 makes the row live
    x2 = np.array([[0, 1, 0, 0], [0, 2, 0, 0]])
    assert list(_primitive_rows(HURWITZ, np.array([2, 2]), np.array([1, 2]),
                                lambda rows: x2[rows] * 2)) == [True, False]
    with pytest.raises(ArithmeticError):
        _primitive_rows(HURWITZ, np.array([2]), np.array([2]), lambda rows: x2[:1][rows])


def test_cbar_packing_packs_4_conj_c_x():
    rng = np.random.default_rng(30)
    for ring in (Z, HURWITZ, OCTAVIAN):
        pts = enumerate_ball(ring, 3)
        c2, x2 = pts[rng.integers(0, len(pts), 200)], pts[rng.integers(0, len(pts), 200)]
        lim = 4 * 3 * 2 + 1  # |4 c^-bar x|_i <= 4 |c| |x| <= 12
        got = ((c2 @ _cbar_packing(ring.dim, lim)) * x2).sum(axis=1)
        digits = _mult4(c2 * _conj_sign(ring.dim), x2)
        assert got.tolist() == [sum(int(v) * lim ** k for k, v in enumerate(row))
                                for row in digits]


def test_ring_bounds_must_be_integers():
    enumerate_ball(HURWITZ, 2)  # an equal int bound is cached
    for call in (lambda: enumerate_ball(HURWITZ, 2.5), lambda: enumerate_ball(HURWITZ, 2.0),
                 lambda: enumerate_ball(Z, True), lambda: ball_elements(Z, 1.5),
                 lambda: shell_counts(OCTAVIAN, 3.0),
                 lambda: common_right_divisors(HURWITZ, one(4), one(4), 2.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    assert len(enumerate_ball(HURWITZ, np.int64(2))) == 1 + 24 + 24


def test_class_keys_are_exact_up_to_2_53_and_raise_beyond():
    # rows a (1, ..., 1) of growing a: the last row the keys accept packs
    # its minimal vectors exactly (balanced base 2 isqrt(4 |c2|^2) + 1,
    # digits 4 c^-bar e); the next one raises rather than round
    e2 = enumerate_ball(OCTAVIAN, 1)[1:]
    for a in range(1, 64):
        try:
            _class_keys(OCTAVIAN, np.full((1, 8), a + 1))
        except OverflowError:
            break
    else:
        pytest.fail("no OverflowError up to a = 64")
    c2 = np.full((1, 8), a)
    keys = _class_keys(OCTAVIAN, c2)
    lim = 2 * math.isqrt(4 * 8 * a * a) + 1
    digits = 2 * _mult2(np.broadcast_to(c2 * _conj_sign(8), e2.shape), e2)
    expect = sorted(sum(int(x) * lim ** k for k, x in enumerate(row)) for row in digits)
    assert keys.dtype == np.int64 and keys[0].tolist() == expect
    assert max(abs(k) for k in expect) > 2 ** 50


def _octavian_member_oracle(x2):
    """Integrality of the E8 simple-root coordinates of x2 / 2, in floats."""
    from octavia.rings import E8_SIMPLE_ROOTS
    basis = np.array([[float(c) for c in r.coords] for r in E8_SIMPLE_ROOTS])
    t = np.linalg.solve(basis.T, np.asarray(x2, dtype=float) / 2.0)
    return bool(np.all(np.abs(t - np.rint(t)) < 1e-9))


def test_octavian_membership_matches_root_coordinates(nprng):
    ball = enumerate_ball(OCTAVIAN, 2)
    others = nprng.integers(-4, 5, size=(400, 8))
    verdicts = []
    for x2 in list(ball) + list(others):
        got = is_member(OCTAVIAN, AlgElem.from_coords2(8, x2))
        assert got == _octavian_member_oracle(x2)
        verdicts.append(got)
    assert all(verdicts[:len(ball)]) and not all(verdicts[len(ball):])
    assert not is_member(OCTAVIAN, AlgElem.make(8, [Fraction(1, 3)] + [0] * 7))


def test_commutator_ideal_index_is_four():
    assert commutator_ideal_index() == 4


def test_commutator_ideal_is_the_ideal_of_one_plus_e1():
    # the commutator ideal of the Hurwitz ring is (1 + e1)H: x lies in it
    # exactly when conj(1 + e1) x / 2 is a Hurwitz quaternion
    w = conj(one(4) + basis_unit(4, 1))
    verdicts = []
    for x2 in enumerate_ball(HURWITZ, 9):
        x = AlgElem.from_coords2(4, tuple(int(v) for v in x2))
        got = is_in_commutator_ideal(x)
        assert got == is_member(HURWITZ, cd_multiply(w, x) * Fraction(1, 2))
        verdicts.append(got)
    assert len(verdicts) == 937 and sum(verdicts) == 169


def test_is_unit():
    assert is_unit(HURWITZ, AlgElem.from_coords2(4, [1, 1, 1, -1]))
    assert not is_unit(HURWITZ, AlgElem.from_coords2(4, [2, 2, 0, 0]))


def test_random_element_members(rng):
    for ring in (Z, HURWITZ, OCTAVIAN):
        for _ in range(50):
            assert is_member(ring, random_element(ring, rng))


def _random_element_by_ring(ring, rng, max_coord2=6):
    """One branch per ring with its own glue code: the draw that the
    single glue-code branch of random_element must reproduce."""
    if ring is Z:
        return AlgElem.from_coords2(1, [2 * rng.randint(-max_coord2, max_coord2)])
    if ring is HURWITZ:
        par = rng.randint(0, 1)
        c2 = [2 * rng.randint(-max_coord2 // 2, max_coord2 // 2) + par for _ in range(4)]
        return AlgElem.from_coords2(4, c2)
    code = _paper_glue_code(OCTAVIAN)
    cw = code[rng.randrange(len(code))]
    c2 = [2 * rng.randint(-max_coord2 // 2, max_coord2 // 2) + p for p in cw]
    return AlgElem.from_coords2(8, c2)


@pytest.mark.parametrize("max_coord2", [3, 4, 6])
@pytest.mark.parametrize("ring", [Z, HURWITZ, OCTAVIAN], ids=lambda r: r.name)
def test_random_element_matches_per_ring_draw(ring, max_coord2):
    seed = f"{ring.name}:{max_coord2}"
    got, expect = random.Random(seed), random.Random(seed)
    assert ([random_element(ring, got, max_coord2) for _ in range(200)]
            == [_random_element_by_ring(ring, expect, max_coord2) for _ in range(200)])
