"""Cayley-Dickson arithmetic: composition, alternativity, serialization."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from octavia import algebra
from octavia.algebra import (
    AlgElem,
    associator,
    basis_sum_zero_divisor_search,
    basis_unit,
    cd_multiply,
    commutator,
    conj,
    find_sedenion_zero_divisors,
    from_text,
    inner,
    invert,
    left_mult_matrix,
    moufang_residuals,
    norm_sq,
    one,
    right_mult_matrix,
    structure_table,
    to_text,
    verify_octonion_table,
    zero,
)


def _rand(rng, dim, span=3):
    return AlgElem.from_coords2(
        dim, [rng.randint(-span, span) for _ in range(dim)])


def test_octonion_table_consistent():
    images = verify_octonion_table()
    assert len(images) == 7  # signed images of the imaginary units


def _two_rule_closure():
    """Closure of {(1, 5, 6)} under the shift i -> i + 1 and the doubling
    i -> 2i (mod 7 on 1..7), each triple rotated to start at its least
    index: the oracle of the shift-only _seed_triples."""
    def shift(t):
        return tuple(x % 7 + 1 for x in t)

    def double(t):
        return tuple((2 * x - 1) % 7 + 1 for x in t)

    triples = {(1, 5, 6)}
    while True:
        new = set()
        for t in triples:
            for u in (shift(t), double(t)):
                m = u.index(min(u))
                u = u[m:] + u[:m]
                if u not in triples:
                    new.add(u)
        if not new:
            return sorted(triples)
        triples |= new


def test_seed_triples_match_two_rule_closure():
    assert algebra._seed_triples() == _two_rule_closure()


def _clear_algebra_caches():
    for fn in vars(algebra).values():
        if hasattr(fn, "cache_clear") and fn.__module__ == algebra.__name__:
            fn.cache_clear()


@pytest.mark.parametrize("which", range(7))
def test_table_check_rejects_a_reversed_triple(monkeypatch, which):
    good = algebra._seed_triples()
    # the reversed triple, rotated to start at its least index like the rest
    bad = good[:which] + [algebra._rotated(good[which][::-1])] + good[which + 1:]
    monkeypatch.setattr(algebra, "_seed_triples", lambda: bad)
    _clear_algebra_caches()
    try:
        with pytest.raises(RuntimeError):
            verify_octonion_table()
    finally:
        monkeypatch.undo()
        _clear_algebra_caches()
    assert len(verify_octonion_table()) == 7


def test_sedenion_search_failure_is_a_runtime_error(monkeypatch):
    monkeypatch.setattr(algebra, "_zero_divisor_rows", lambda dim: iter(()))
    with pytest.raises(RuntimeError):
        find_sedenion_zero_divisors()


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_norm_composition(rng, dim):
    for _ in range(40):
        a, b = _rand(rng, dim), _rand(rng, dim)
        assert norm_sq(cd_multiply(a, b)) == norm_sq(a) * norm_sq(b)


def test_sedenions_do_not_compose():
    p, q, nz, np_, nq = find_sedenion_zero_divisors()
    assert nz == 0 and np_ > 0 and nq > 0


def _fraction_multiply(a, b):
    """The Fraction loop through the structure table: the oracle for the
    integer-numerator cd_multiply."""
    idx, sgn = structure_table(a.dim)
    out = [Fraction(0)] * a.dim
    for i, ai in enumerate(a.coords):
        for j, bj in enumerate(b.coords):
            if ai and bj:
                out[int(idx[i, j])] += int(sgn[i, j]) * ai * bj
    return AlgElem(a.dim, tuple(out))


def _rational(rng, dim):
    """A seeded element: zero, half-integral, with denominators 3 and 7,
    with large numerators and denominators, or (dim <= 8) the inverse of
    a half-integral element."""
    kind = rng.randrange(5)
    if kind == 0:
        return zero(dim)
    if kind == 1 or (kind == 3 and dim == 16):
        return _rand(rng, dim)
    if kind == 2:
        return AlgElem.make(dim, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
                                  for _ in range(dim)])
    if kind == 4:
        return AlgElem.make(dim, [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
                                  for _ in range(dim)])
    x = _rand(rng, dim)
    return invert(x) if not x.is_zero() else one(dim)


# The Fraction implementations that the integer-numerator elements
# replaced, on coordinate tuples: the oracles for the element arithmetic.

def _fraction_inner(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _fraction_conj(a):
    return (a[0],) + tuple(-x for x in a[1:])


def _fraction_invert(a):
    n = _fraction_inner(a, a)
    return tuple(x / n for x in _fraction_conj(a))


def _in_lowest_terms(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
def test_integer_products_match_fraction_loop(rng, dim):
    for _ in range(60):
        a, b = _rational(rng, dim), _rational(rng, dim)
        prod = cd_multiply(a, b)
        assert prod.coords == _fraction_multiply(a, b).coords
        assert all(type(c.numerator) is int for c in prod.coords)
        ip = inner(a, b)
        assert ip == sum((x * y for x, y in zip(a.coords, b.coords)), Fraction(0))
        assert type(ip.numerator) is int


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
def test_integer_arithmetic_matches_fraction_oracle(rng, dim):
    for _ in range(60):
        a, b = _rational(rng, dim), _rational(rng, dim)
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        ac, bc = a.coords, b.coords
        cases = [
            (a + b, tuple(x + y for x, y in zip(ac, bc))),
            (a - b, tuple(x - y for x, y in zip(ac, bc))),
            (-a, tuple(-x for x in ac)),
            (conj(a), _fraction_conj(ac)),
            (a * f, tuple(x * f for x in ac)),
            (f * a, tuple(f * x for x in ac)),
            (cd_multiply(a, b), _fraction_multiply(a, b).coords),
        ]
        if dim <= 8 and not a.is_zero():
            cases.append((invert(a), _fraction_invert(ac)))
        for got, want in cases:
            assert got.coords == want
            assert _in_lowest_terms(got)
        assert inner(a, b) == _fraction_inner(ac, bc)
        assert norm_sq(a) == _fraction_inner(ac, ac)
        assert algebra.real_part(a) == ac[0]
        assert a.is_zero() == (ac == (0,) * dim)


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
def test_equal_elements_have_equal_fields_and_hashes(rng, dim):
    for _ in range(40):
        c2 = [rng.randint(-6, 6) for _ in range(dim)]
        x = AlgElem.from_coords2(dim, c2)
        y = _rational(rng, dim)
        built = [
            x,
            AlgElem(dim, [Fraction(c, 2) for c in c2]),
            AlgElem.make(dim, [c / 2 for c in c2]),  # floats, taken exactly
            AlgElem.make(dim, [f"{c}/2" for c in c2]),
            (x + y) - y,
            -(-x),
            conj(conj(x)),
            x * Fraction(7, 3) * Fraction(3, 7),
            cd_multiply(one(dim), x),
            cd_multiply(x, one(dim)),
        ]
        for z in built:
            assert z == x and hash(z) == hash(x)
            assert (z.dim, z.num, z.den) == (x.dim, x.num, x.den)
            assert z.coords2 == tuple(c2)
    assert hash(zero(dim)) == hash(AlgElem(dim, [Fraction(0, 5)] * dim))


def test_elements_store_only_their_fields():
    # views are derived on first use and kept beside the fields
    x = AlgElem(4, [Fraction(1, 2), -1, 0, Fraction(3, 2)])
    assert (x.num, x.den) == ((1, -2, 0, 3), 2)
    assert set(vars(x)) == {"dim", "num", "den"}
    assert x.coords == (Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(3, 2))
    assert x.coords2 == (1, -2, 0, 3)
    assert [f.name for f in dataclasses.fields(x)] == ["dim", "num", "den"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.den = 1
    with pytest.raises(ValueError):
        AlgElem(3, [0, 0, 0])
    with pytest.raises(ValueError):
        AlgElem.from_coords2(4, [0, 0, 0])


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
def test_mult4_matches_cd_multiply_across_blocks(nprng, dim):
    # rows are drawn from a pool of pairs whose products cd_multiply
    # gives, so every row count is cheap to check; the counts straddle
    # the block edges of the kernel
    xs, ys = (nprng.integers(-9, 10, (40, dim)) for _ in range(2))

    def product(x, y):
        z = cd_multiply(AlgElem.make(dim, x.tolist()), AlgElem.make(dim, y.tolist()))
        return [int(c) for c in z.coords]

    pairs = np.array([product(x, y) for x, y in zip(xs, ys)])
    row0 = np.array([product(xs[0], y) for y in ys])  # x = xs[0] on every row
    block = algebra._BLOCK_PRODUCTS // dim ** 2
    big = 10 ** 15  # object rows: products beyond int64
    for m in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        pick = nprng.integers(0, len(xs), m)
        got = algebra._mult4(xs[pick], ys[pick])
        assert got.dtype == np.int64 and got.shape == (m, dim)
        assert np.array_equal(got, pairs[pick])
        got = algebra._mult4(xs[pick].astype(object) * big, ys[pick].astype(object) * big)
        assert got.dtype == object and np.array_equal(got, pairs[pick].astype(object) * big ** 2)
        x0 = np.broadcast_to(xs[0], (m, dim))  # read-only, stride 0
        assert np.array_equal(algebra._mult4(x0, ys[pick]), row0[pick])


def _basis_sum_pair_scan(dim):
    """Every pair (e_a + s e_b, e_c + t e_d) with zero product, one
    cd_multiply per pair in combination order."""
    sums = [basis_unit(dim, a) + s * basis_unit(dim, b)
            for a, b in itertools.combinations(range(1, dim), 2) for s in (1, -1)]
    return [(p, q) for p in sums for q in sums if cd_multiply(p, q).is_zero()]


def test_zero_divisor_scan_matches_pair_scan():
    hits = _basis_sum_pair_scan(16)
    assert basis_sum_zero_divisor_search(16) == hits
    assert find_sedenion_zero_divisors()[:2] == hits[0]
    assert basis_sum_zero_divisor_search(8) == []


@pytest.mark.parametrize("dim", [4, 8])
def test_alternativity(rng, dim):
    for _ in range(30):
        a, b = _rand(rng, dim), _rand(rng, dim)
        assert associator(a, a, b).is_zero()
        assert associator(a, b, b).is_zero()


def test_quaternions_associate_octonions_do_not(rng):
    for _ in range(30):
        x, y, z = (_rand(rng, 4) for _ in range(3))
        assert associator(x, y, z).is_zero()
    found = False
    for _ in range(30):
        x, y, z = (_rand(rng, 8) for _ in range(3))
        found = found or not associator(x, y, z).is_zero()
    assert found


def test_moufang_identities(rng):
    for _ in range(20):
        a, x, y = (_rand(rng, 8) for _ in range(3))
        assert all(m.is_zero() for m in moufang_residuals(a, x, y))


def test_conjugation_and_inverse(rng):
    for dim in (2, 4, 8):
        for _ in range(20):
            a = _rand(rng, dim)
            assert cd_multiply(a, conj(a)) == norm_sq(a) * one(dim)
            if not a.is_zero():
                assert cd_multiply(a, invert(a)) == one(dim)
            b = _rand(rng, dim)
            # anti-homomorphism of conjugation
            assert conj(cd_multiply(a, b)) == cd_multiply(conj(b), conj(a))


def test_commutator_center(rng):
    for _ in range(20):
        a = _rand(rng, 8)
        assert commutator(a, one(8)).is_zero()


def test_inner_polarizes_norm(rng):
    for _ in range(20):
        a, b = _rand(rng, 4), _rand(rng, 4)
        assert 2 * inner(a, b) == norm_sq(a + b) - norm_sq(a) - norm_sq(b)


def test_mult_matrices_match_multiplication(rng):
    for dim in (4, 8):
        for _ in range(10):
            a, b = _rand(rng, dim), _rand(rng, dim)
            av = np.array([float(c) for c in a.coords])
            bv = np.array([float(c) for c in b.coords])
            ab = np.array([float(c) for c in cd_multiply(a, b).coords])
            assert np.allclose(left_mult_matrix(av, dim) @ bv, ab)
            assert np.allclose(right_mult_matrix(bv, dim) @ av, ab)


def test_text_round_trip(rng):
    for dim in (1, 2, 4, 8, 16):
        a = _rand(rng, dim)
        assert from_text(to_text(a)) == a
    with pytest.raises(ValueError):
        from_text("quat:1,2,3")
    with pytest.raises(ValueError):
        from_text("nope:1")


def test_basis_units_square_to_minus_one():
    for dim in (2, 4, 8):
        for k in range(1, dim):
            e = basis_unit(dim, k)
            assert cd_multiply(e, e) == -one(dim)


def test_half_integer_coordinates_exact():
    a = AlgElem.from_coords2(4, [1, 1, 1, 1])
    assert a.coords == (Fraction(1, 2),) * 4
    assert norm_sq(a) == 1
    assert zero(4).is_zero()


def test_hash_and_doubled_coordinates_are_cached_views():
    from functools import lru_cache

    calls = []

    @lru_cache(maxsize=None)
    def f(x):
        calls.append(x)
        return x.coords2

    a = AlgElem.make(8, [Fraction(1, 2)] * 4 + [0] * 4)
    b = AlgElem.from_coords2(8, [1, 1, 1, 1, 0, 0, 0, 0])
    c = (a + a) * Fraction(1, 2)
    d = cd_multiply(one(8), b)
    assert a == b == c == d
    assert len({hash(x) for x in (a, b, c, d)}) == 1
    assert hash(a) == hash((a.dim, a.num, a.den))  # the dataclass field hash
    assert [f(x) for x in (a, b, c, d)] == [(1, 1, 1, 1, 0, 0, 0, 0)] * 4
    assert len(calls) == 1 and f.cache_info().hits == 3


def test_coords2_raises_off_the_half_integers():
    x = AlgElem.make(4, [Fraction(1, 3), 0, 0, 0])
    for _ in range(2):  # nothing is cached by the first failure
        with pytest.raises(ValueError):
            x.coords2
