"""Root systems, Weyl groups, octonion automorphisms."""

import hashlib

import numpy as np
import pytest

from octavia.algebra import basis_unit, cd_multiply, norm_sq, one, real_part
from octavia.rings import OCTAVIAN, is_member, units
from octavia.rootsys import (
    LinMap,
    all_roots,
    brandt_conjugation,
    cartan_matrix,
    d4_even_count,
    d4_even_element,
    e7_element,
    e7_normal_form,
    e8_decompose,
    e8_element,
    factor_into_imaginaries,
    g2_key_set,
    generate_G2_2,
    imaginary_units,
    is_automorphism_bimult,
    is_automorphism_map,
    reflect,
    root_basis,
    s_relation_composite,
    sandwich_map,
    theta_marks,
    unit_corollary_check,
    w_e8_order,
)
from octavia.rootsys import nested_conjugation

D4_CARTAN = [
    [2, -1, 0, 0],
    [-1, 2, -1, -1],
    [0, -1, 2, 0],
    [0, -1, 0, 2],
]

E8_CARTAN = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def test_root_counts():
    assert len(all_roots("d4")) == 24
    assert len(all_roots("e7")) == 126
    assert len(all_roots("e8")) == 240


def test_cartan_matrices():
    assert cartan_matrix("d4") == D4_CARTAN
    e8 = np.array(cartan_matrix("e8"))
    assert np.array_equal(e8, e8.T)
    assert np.array_equal(np.diag(e8), 2 * np.ones(8, dtype=int))
    # same Dynkin diagram as the reference matrix, up to node relabeling
    assert sorted(np.linalg.eigvalsh(e8)) == pytest.approx(
        sorted(np.linalg.eigvalsh(np.array(E8_CARTAN, dtype=float))))


def test_theta_is_a_unit_norm_root():
    for name in ("d4", "e7", "e8"):
        basis = root_basis(name)
        assert norm_sq(basis.theta) == 1
        marks = theta_marks(name)
        assert all(m >= 1 for m in marks)
    assert root_basis("d4").theta.coords2 == (2, 0, 0, 0)
    assert root_basis("e7").theta.coords2 == (0, 0, 0, 0, 0, 2, 0, 0)
    assert root_basis("e8").theta.coords2 == (2, 0, 0, 0, 0, 0, 0, 0)


def test_reflection_involution(rng):
    roots = all_roots("e8")
    for _ in range(30):
        a = rng.choice(roots)
        x = rng.choice(roots)
        assert reflect(reflect(x, a), a) == x
        assert reflect(a, a) == -a


def test_roots_closed_under_reflection(rng):
    for name in ("d4", "e8"):
        roots = set(all_roots(name))
        sample = list(roots)[:24]
        for a in sample:
            for x in sample:
                assert reflect(x, a) in roots


def test_d4_even_order():
    assert d4_even_count() == 96


def test_d4_even_elements_are_isometries(rng):
    us = units(__import__("octavia.rings", fromlist=["HURWITZ"]).HURWITZ)
    ok = 0
    for _ in range(40):
        a, b = rng.choice(us), rng.choice(us)
        try:
            m = d4_even_element(a, b)
        except ValueError:
            continue
        assert m.is_orthogonal()
        ok += 1
    assert ok > 0


def test_s_relation_composite_is_minus_identity():
    m = s_relation_composite()
    assert m.matrix2().tolist() == (-2 * np.eye(4, dtype=int)).tolist()


# sha256 of the sorted G2(2) matrices (rows2 as int8 bytes), captured when
# the group was still closed over all 113 generators
G2_DIGEST = "ae60fa146497610ac7046b061d5f9815461da31c4f2e7a3d21b84c0dfa06d8aa"


def test_g2_order_and_multiplicativity(rng):
    maps = generate_G2_2()
    assert len(maps) == 12096
    rows = np.array([m.rows2 for m in maps], dtype=np.int8)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == G2_DIGEST
    for _ in range(5):
        assert is_automorphism_map(rng.choice(maps))


def test_brandt_conjugations_are_automorphisms(rng):
    from octavia.rings import octavian_unit_classes
    real, brandt, imag = octavian_unit_classes()
    for a in brandt[:5]:
        assert is_automorphism_map(brandt_conjugation(a))
    # imaginary-unit conjugation x -> u x u^{-1} is not an automorphism of O
    assert not is_automorphism_map(brandt_conjugation(imag[0]))


def test_nested_conjugation_criterion(rng):
    us = units(OCTAVIAN)
    agree = 0
    for _ in range(80):
        seq = tuple(rng.choice(us) for _ in range(rng.randint(1, 4)))
        m = LinMap.from_callable(8, lambda x: nested_conjugation(seq, x))
        assert is_automorphism_bimult(seq) == is_automorphism_map(m)
        agree += 1
    assert agree == 80


def test_unit_corollary_on_imaginary_pairs():
    imag = imaginary_units()[:12]
    for g in imag:
        for h in imag:
            seq = (g, h)
            m = LinMap.from_callable(8, lambda x: nested_conjugation(seq, x))
            assert unit_corollary_check(seq) == is_automorphism_map(m)


def test_factor_into_imaginaries(rng):
    for b in list(units(OCTAVIAN))[::24]:
        g, h = factor_into_imaginaries(b)
        assert real_part(g) == 0 and real_part(h) == 0
        assert cd_multiply(g, h) == b


def test_e8_decompose_round_trip(rng):
    imag = imaginary_units()
    g2 = generate_G2_2()
    us = units(OCTAVIAN)
    for _ in range(25):
        m = e8_element(rng.choice(imag), rng.choice(imag), rng.choice(us),
                       rng.choice(g2))
        e, f, b, phi = e8_decompose(m)
        assert e8_element(e, f, b, phi).key() == m.key()


def test_e7_normal_form_round_trip(rng):
    imag = imaginary_units()
    g2 = generate_G2_2()
    for _ in range(10):
        m = e7_element(rng.choice(imag), rng.choice(imag), rng.choice(g2))
        b, phi, (g, h) = e7_normal_form(m)
        assert e7_element(g, h, phi).key() == m.key()
        assert min(cd_multiply(g, h), -cd_multiply(g, h),
                   key=lambda u: u.coords) == b
    # entries beyond an isometry's are rejected before the int8 search
    for scale in (2, 64):
        with pytest.raises(ValueError):
            e7_normal_form(LinMap(8, tuple(
                tuple(2 * scale * int(i == j) for j in range(8)) for i in range(8))))


def test_w_e8_order():
    assert w_e8_order(sample_checks=10) == 240 * 120 * 12096


@pytest.mark.heavy
def test_w_e7_closure_order():
    from octavia.rootsys import generate_w_e7
    assert generate_w_e7() == 1451520
