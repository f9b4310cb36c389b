"""Upper half plane models: metric, isometries, geodesics."""

import numpy as np
import pytest

from octavia.algebra import AlgElem, left_mult_matrix
from octavia.hyperweyl import HermMat, Inv, Trans, apply_word, random_word
from octavia.rings import HURWITZ, OCTAVIAN, Z
from octavia.uhp import (
    Jet2,
    UhpPoint,
    act_word_jets,
    laplace_beltrami_jet,
    act_matrix_quaternion,
    act_word,
    cayley_matrix,
    distance,
    embed,
    geodesic_point,
    hyperbolic_element,
    laplace_beltrami_numeric,
    periodic_orbit_length,
    unembed,
    volume_density,
)


def _rand_point(nprng, dim):
    return UhpPoint(nprng.uniform(-2, 2, size=dim), float(nprng.uniform(0.3, 3)))


def test_point_validation():
    with pytest.raises(ValueError):
        UhpPoint([0.0], 0.0)
    with pytest.raises(ValueError):
        UhpPoint([0.0, 0.0], -1.0)


@pytest.mark.parametrize("u, v, name", [
    ([float("nan"), 0.0, 0.0, 0.0], 1.0, "u"),
    ([0.0, float("-inf"), 0.0, 0.0], 1.0, "u"),
    ([0.0] * 4, float("inf"), "v"),
    ([0.0] * 4, float("nan"), "v"),
])
def test_point_rejects_non_finite_coordinates(u, v, name):
    # a nan coordinate used to pass and turn every series value into nan
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        UhpPoint(u, v)


def test_embed_on_hyperboloid(nprng):
    for dim in (1, 4, 8):
        for _ in range(20):
            z = _rand_point(nprng, dim)
            xp, xm, x = embed(z)
            assert abs(-xp * xm + float(x @ x) + 1.0) < 1e-12
            z2 = unembed(xp, xm, x)
            assert distance(z, z2) < 1e-12


def test_distance_axioms(nprng):
    for dim in (1, 4, 8):
        a, b, c = (_rand_point(nprng, dim) for _ in range(3))
        assert distance(a, a) == 0.0
        assert distance(a, b) == pytest.approx(distance(b, a))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


def test_distance_matches_classical_real_case():
    # on the real upper half plane d(iv1, iv2) = |log(v2/v1)|
    z1, z2 = UhpPoint([0.0], 1.0), UhpPoint([0.0], np.e)
    assert distance(z1, z2) == pytest.approx(1.0, abs=1e-12)


def test_isometry_under_words(rng, nprng):
    for ring in (Z, HURWITZ, OCTAVIAN):
        for _ in range(40):
            w = random_word(ring, rng, 6, 3)
            z1, z2 = _rand_point(nprng, ring.dim), _rand_point(nprng, ring.dim)
            d0 = distance(z1, z2)
            d1 = distance(act_word(w, z1), act_word(w, z2))
            assert abs(d1 - d0) < 1e-9


def test_word_inverse_round_trip(rng, nprng):
    for ring in (HURWITZ, OCTAVIAN):
        for _ in range(10):
            w = random_word(ring, rng, 6, 3)
            z = _rand_point(nprng, ring.dim)
            back = act_word(w.inverse(), act_word(w, z))
            assert distance(z, back) < 1e-9


def test_matrix_action_matches_word_action(rng, nprng):
    from octavia.hyperweyl import matrix_of_word
    for _ in range(10):
        w = random_word(HURWITZ, rng, 4, 3)
        S = matrix_of_word(w)
        Sf = tuple(tuple(np.array([float(t) for t in x.coords]) for x in row)
                   for row in S)
        z = _rand_point(nprng, 4)
        za, zb = act_word(w, z), act_matrix_quaternion(Sf, z)
        assert distance(za, zb) < 1e-9


def test_laplacian_invariance(rng, nprng):
    def f(z):
        u = z.u_vector()
        return z.v ** 1.3 * np.cos(u[0]) * np.exp(-0.1 * float(u @ u))

    for ring in (HURWITZ, OCTAVIAN):
        for _ in range(8):
            w = random_word(ring, rng, 4, 3)
            z = _rand_point(nprng, ring.dim)
            lhs = laplace_beltrami_numeric(lambda p: f(act_word(w, p)), z)
            rhs = laplace_beltrami_numeric(f, act_word(w, z))
            assert abs(lhs - rhs) < 1e-4 * (1 + abs(rhs))


def test_laplacian_eigenfunction():
    # v^s has eigenvalue s(s - n) on the n+1 dimensional model
    for dim, s in ((1, 0.7), (4, 2.3), (8, 3.1)):
        z = UhpPoint([0.1] * dim, 1.4)
        val = laplace_beltrami_numeric(lambda p: p.v ** s, z)
        assert val == pytest.approx(s * (s - dim) * z.v ** s, rel=1e-5)


def _jet_f(uj, vj):
    nrm = sum((x * x for x in uj), vj * vj)
    return vj * vj * vj / (1 + nrm)


def test_jet_laplacian_matches_finite_differences():
    from fractions import Fraction
    u = [Fraction(1, 3), Fraction(-1, 5), Fraction(0), Fraction(1, 2)]
    v = Fraction(7, 5)
    exact = laplace_beltrami_jet(_jet_f, u, v)

    def f(z):
        uu = z.u_vector()
        return z.v ** 3 / (1 + float(uu @ uu) + z.v ** 2)

    fd = laplace_beltrami_numeric(f, UhpPoint([float(x) for x in u], float(v)))
    assert fd == pytest.approx(float(exact), abs=1e-5)


def test_jet_word_action_matches_float_action(rng):
    from fractions import Fraction
    for ring in (HURWITZ, OCTAVIAN):
        for _ in range(5):
            w = random_word(ring, rng, 4, 3)
            u = [Fraction(rng.randint(-4, 4), 5) for _ in range(ring.dim)]
            v = Fraction(rng.randint(2, 10), 5)
            uj, vj = act_word_jets(w, [Jet2(x) for x in u], Jet2(v))
            zf = act_word(w, UhpPoint([float(x) for x in u], float(v)))
            assert np.allclose([float(j.a) for j in uj], zf.u_vector())
            assert float(vj.a) == pytest.approx(zf.v)


def test_jet_laplacian_invariance_exact(rng):
    from fractions import Fraction
    for ring in (Z, HURWITZ, OCTAVIAN):
        for _ in range(5):
            w = random_word(ring, rng, 4, 3)
            u = [Fraction(rng.randint(-4, 4), 5) for _ in range(ring.dim)]
            v = Fraction(rng.randint(2, 10), 5)
            lhs = laplace_beltrami_jet(
                lambda uj, vj: _jet_f(*act_word_jets(w, uj, vj)), u, v)
            uj, vj = act_word_jets(w, [Jet2(x) for x in u], Jet2(v))
            rhs = laplace_beltrami_jet(_jet_f, [j.a for j in uj], vj.a)
            assert lhs == rhs


def _act_word_by_token_loop(w, z):
    """The former float loop on (u, v), one token at a time: the oracle
    for act_word."""
    def conj(u):
        return np.concatenate([u[:1], -u[1:]])

    def mul(x, y):
        return left_mult_matrix(x, len(x)) @ y

    u, v = z.u_vector(), z.v
    for tok in reversed(w.tokens):
        if isinstance(tok, Inv):
            d = float(u @ u) + v * v
            u, v = -conj(u) / d, v / d
        elif isinstance(tok, Trans):
            u = u + tok.y.floats()
        else:
            e = tok.eps.floats()
            u = mul(mul(e, u), e)
    return u, v


def test_act_word_matches_token_loop_oracle(rng, nprng):
    for ring in (Z, HURWITZ, OCTAVIAN):
        worst = 0.0
        for _ in range(500):
            w = random_word(ring, rng, 6, 3)
            z = _rand_point(nprng, ring.dim)
            got = act_word(w, z)
            u, v = _act_word_by_token_loop(w, z)
            err = max(np.abs(got.u_vector() - u).max(), abs(got.v - v))
            worst = max(worst, err / max(np.abs(u).max(), v))
        assert worst < 1e-12, (ring, worst)


def test_jet_values_equal_exact_matrix_action(rng):
    from fractions import Fraction
    for ring in (Z, HURWITZ, OCTAVIAN):
        for _ in range(20):
            w = random_word(ring, rng, 6, 3)
            u = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(ring.dim)]
            v = Fraction(rng.randint(1, 9), rng.randint(1, 7))
            # the hyperboloid coordinates of u + iv as a Hermitian matrix
            X = HermMat(v + sum(x * x for x in u) / v, 1 / v,
                        AlgElem(ring.dim, tuple(x / v for x in u)))
            Y = apply_word(w, X)
            uj, vj = act_word_jets(w, [Jet2(x) for x in u], Jet2(v, 1))
            assert [j.a for j in uj] == [x / Y.x_minus for x in Y.x.coords]
            assert vj.a == 1 / Y.x_minus


def test_jet_constants_stay_exact():
    from fractions import Fraction
    j = Jet2(Fraction(1, 3), 2, Fraction(-1, 5))
    for got in (j * 3, 3 * j, j / 2, j + 1, 1 / j):
        assert all(type(c) is Fraction for c in (got.a, got.b, got.c))
    assert (j / 2).b == 1 and (j / 2).c == Fraction(-1, 10)
    assert (j * Jet2(2)).c == Fraction(-2, 5)
    assert (Jet2(2) + j).b == 2
    r = 1 / j
    assert (r * j).a == 1 and (r * j).b == 0 and (r * j).c == 0


def test_volume_density():
    assert volume_density(UhpPoint([0.0] * 4, 2.0)) == 2.0 ** -5


def test_geodesic_endpoints_and_symmetry():
    u1, u2 = np.array([0.0, 1.0]), np.array([2.0, -1.0])
    zt = geodesic_point(u1, u2, 1.0)
    # apex is over the midpoint at height |u1 - u2| / 2
    assert np.allclose(zt.u_vector(), (u1 + u2) / 2)
    assert zt.v == pytest.approx(np.linalg.norm(u1 - u2) / 2)
    small = geodesic_point(u1, u2, 1e-8)
    assert np.allclose(small.u_vector(), u1, atol=1e-7)


def test_hyperbolic_element_translates_geodesic():
    u1, u2 = np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 2.0, 0.0, 0.0])
    t = 3.7
    M = hyperbolic_element(u1, u2, t)
    for t0 in (0.5, 1.0, 2.0):
        z = geodesic_point(u1, u2, t0)
        target = geodesic_point(u1, u2, t * t0)
        assert distance(act_matrix_quaternion(M, z), target) < 1e-9
    assert periodic_orbit_length(M) == pytest.approx(np.log(t))


def test_orbit_length_oracle():
    o = np.array([1.0])
    M = ((2 * o, o), (o, o))
    assert periodic_orbit_length(M) == pytest.approx(1.9248473002384139)


def test_cayley_matrix_maps_vertical_geodesic():
    u1, u2 = np.array([0.0, 0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])
    C = cayley_matrix(u1, u2)
    for t0 in (0.5, 1.0, 4.0):
        z = UhpPoint([0.0] * 4, t0)
        img = act_matrix_quaternion(C, z)
        assert distance(img, geodesic_point(u1, u2, t0)) < 1e-9
