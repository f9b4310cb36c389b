"""Root systems, Weyl groups, octonion automorphisms."""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from octavia import rootsys
from octavia.algebra import (
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
from octavia.rings import (
    D4_SIMPLE_ROOTS,
    E8_SIMPLE_ROOTS,
    HURWITZ,
    OCTAVIAN,
    is_member,
    octavian_unit_classes,
    units,
)
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
    right_mult_map,
    root_basis,
    s_relation_composite,
    sandwich_map,
    theta_marks,
    unit_corollary_check,
    w_e8_order,
)
from octavia.rootsys import nested_conjugation_map

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


SIMPLE_ROOTS = {"d4": D4_SIMPLE_ROOTS, "e7": E8_SIMPLE_ROOTS[1:], "e8": E8_SIMPLE_ROOTS}


@pytest.mark.parametrize("name", ["d4", "e7", "e8"])
def test_all_roots_match_reflect_closure(name):
    simple = SIMPLE_ROOTS[name]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        frontier = [img for img in {reflect(r, s) for r in frontier for s in simple}
                    if img not in roots]
        roots.update(frontier)
    assert all_roots(name) == tuple(sorted(roots, key=lambda u: u.coords))


@pytest.mark.parametrize("name", ["d4", "e7", "e8"])
def test_root_closure_coefficients_rebuild_each_root(name):
    closure = rootsys._root_closure(name)
    assert tuple(closure) == tuple(r.coords2 for r in all_roots(name))
    for x2, coeffs in closure.items():
        assert all(type(c) is int for c in coeffs)
        got = AlgElem.from_coords2(len(x2), (0,) * len(x2))
        for c, a in zip(coeffs, SIMPLE_ROOTS[name]):
            got = got + a * c
        assert got.coords2 == x2


def _gauss_jordan_coefficients(simple, x):
    """Exact coefficients of x over the independent simple roots by a
    Fraction Gauss-Jordan solve of the Gram system: the oracle of the
    coefficients the root closure records."""
    k = len(simple)
    aug = [[inner(a, b) for b in simple] + [inner(a, x)] for a in simple]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[k] for row in aug]


@pytest.mark.parametrize("name", ["d4", "e7", "e8"])
def test_theta_marks_match_gauss_jordan(name):
    basis = root_basis(name)
    assert theta_marks(name) == _gauss_jordan_coefficients(basis.simple_roots, basis.theta)


@pytest.mark.parametrize("name", ["d4", "e7", "e8"])
def test_reflection_kernel_matches_reflect(name):
    # every root x simple root image, mapped to coordinates, is the
    # sandwich reflection of the algebra
    simple = root_basis(name).simple_roots
    coef = np.array(list(rootsys._root_closure(name).values()))
    img = rootsys._reflect_rows(np.array(cartan_matrix(name)), coef)
    s2 = np.array([a.coords2 for a in simple])
    for x, row in zip(all_roots(name), (img @ s2).tolist()):
        assert list(map(tuple, row)) == [reflect(x, a).coords2 for a in simple]


@pytest.mark.parametrize("name", ["d4", "e7", "e8"])
def test_reflection_kernel_coxeter_relations(name):
    # s_i^2 = 1 and (s_i s_j)^m_ij = 1 on every coefficient row, with
    # m_ij = 2 or 3 as A_ij A_ji = 0 or 1
    cartan = np.array(cartan_matrix(name))
    rows = np.array(list(rootsys._root_closure(name).values()))
    k = len(cartan)
    for i in range(k):
        for j in range(k):
            link = cartan[i, j] * cartan[j, i]
            assert i == j or link in (0, 1)
            x = rows
            for _ in range(1 if i == j else 2 + link):
                x = rootsys._reflect_rows(cartan, rootsys._reflect_rows(cartan, x)[:, j])[:, i]
            assert np.array_equal(x, rows), (i, j)


def test_unknown_root_system_raises():
    for f in (all_roots, cartan_matrix, root_basis, theta_marks):
        with pytest.raises(ValueError, match="unknown root system 'f4'"):
            f("f4")


def test_unit_checks_of_the_element_builders():
    imag, g2 = imaginary_units(), generate_G2_2()
    brandt = octavian_unit_classes()[1][0]  # a unit with real part +-1/2
    for u in (one(8), -one(8), imag[0]):
        e8_element(u, imag[1], brandt, g2[0])
    for bad in (brandt, 2 * imag[0], one(8) + imag[0]):
        with pytest.raises(ValueError):
            e8_element(bad, imag[1], one(8), g2[0])
        with pytest.raises(ValueError):
            e7_element(imag[1], bad, g2[0])
    for bad in (2 * one(8), AlgElem.from_coords2(8, (1, 1, 1, 0, 0, 0, 0, 0))):
        with pytest.raises(ValueError):
            e8_element(one(8), one(8), bad, g2[0])
        with pytest.raises(ValueError):
            factor_into_imaginaries(bad)
    with pytest.raises(ValueError):
        e7_element(one(8), imag[0], g2[0])  # real, not imaginary
    with pytest.raises(ValueError):
        d4_even_element(2 * one(4), one(4))
    # right multiplication by a unit off the lattice is an even isometry
    # whose image of 1 is no unit octavian
    off = AlgElem.from_coords2(8, (1, 1, 1, 1, 0, 0, 0, 0))
    assert norm_sq(off) == 1 and not is_member(OCTAVIAN, off)
    with pytest.raises(ValueError):
        e8_decompose(rootsys._bimult_map(one(8), off))


def test_key_rejects_entries_outside_int8():
    # a G2(2) element with 256 added to one entry would wrap onto its own
    # int8 key and pass as an automorphism
    g = generate_G2_2()[5]
    rows = [list(r) for r in g.rows2]
    rows[3][4] += 256
    bad = LinMap(8, tuple(map(tuple, rows)))
    assert not bad.is_orthogonal()
    imag = imaginary_units()
    with pytest.raises(ValueError):
        bad.key()
    with pytest.raises(ValueError):
        e7_element(imag[0], imag[1], bad)
    with pytest.raises(ValueError):
        e8_element(one(8), imag[1], one(8), bad)
    assert g.key() in g2_key_set()


def test_d4_even_order():
    assert d4_even_count() == 96


def test_d4_reflection_group_meets_the_even_group_in_32_elements():
    # the products of reflections in the roots all_roots("d4") generate
    # a group of order 96, triality-conjugate to d4_even_element's group,
    # and the two groups share exactly 32 elements
    refl = [LinMap.from_callable(4, lambda x: reflect(x, r)) for r in all_roots("d4")]
    chain = rootsys._stabilizer_chain(np.stack([(s * refl[0]).matrix2() for s in refl]))
    assert rootsys._order(chain) == 96
    even = {}
    for a in units(HURWITZ):
        for b in units(HURWITZ):
            if cd_multiply(a, b) in rootsys._qset():
                m = d4_even_element(a, b)
                even[m.key()] = m.matrix2()
    assert len(even) == 96
    assert _members(chain, np.stack(list(even.values()))).sum() == 32
    # the reflection group is {x -> a x b : a conj(b) in Q8}
    conj_pairs = np.stack([LinMap.from_callable(4, lambda x: cd_multiply(cd_multiply(a, x), b))
                           .matrix2() for a in units(HURWITZ) for b in units(HURWITZ)
                           if cd_multiply(a, conj(b)) in rootsys._qset()])
    assert len(conj_pairs) == 192 and _members(chain, conj_pairs).all()


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


def test_integer_builders_match_fraction_maps():
    from octavia.rings import Z, HURWITZ
    for ring in (Z, HURWITZ, OCTAVIAN):
        dim = ring.dim
        for a in units(ring):
            ai = invert(a)
            assert sandwich_map(a) == LinMap.from_callable(
                dim, lambda x: cd_multiply(a, cd_multiply(x, a)))
            assert right_mult_map(a) == LinMap.from_callable(
                dim, lambda x: cd_multiply(x, a))
            assert brandt_conjugation(a) == LinMap.from_callable(
                dim, lambda x: cd_multiply(a, cd_multiply(x, ai)))
    admissible = 0
    for a in units(HURWITZ):
        for b in units(HURWITZ):
            if cd_multiply(a, b) in rootsys._qset():
                assert d4_even_element(a, b) == LinMap.from_callable(
                    4, lambda x: cd_multiply(a, cd_multiply(x, b)))
                admissible += 1
    assert admissible == 192  # 96 elements, each from (a, b) and (-a, -b)


def test_integer_builders_reject_maps_off_the_lattice():
    # x -> a x a for the half-integral non-member a = (1 + e1 + e2)/2
    a = AlgElem.from_coords2(8, (1, 1, 1, 0, 0, 0, 0, 0))
    assert not is_member(OCTAVIAN, a)
    with pytest.raises(ValueError):
        LinMap.from_callable(8, lambda x: cd_multiply(a, cd_multiply(x, a)))
    with pytest.raises(ValueError):
        rootsys.sandwich_map.__wrapped__(a)


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


def test_g2_stack_matches_the_int64_build():
    # the oracle builds H u H phi in int64 and sorts it by rows2, as the
    # stack was built before H was kept in int8
    h = rootsys._brandt_closure()
    assert h.dtype == np.int8
    h = h.astype(np.int64)
    mats = np.concatenate([h, rootsys._product2(h, rootsys._outer_automorphism().matrix2())])
    mats = mats[np.lexsort(mats.reshape(len(mats), -1).T[::-1])]
    stack = rootsys._g2_stack()
    assert stack.dtype == np.int8
    assert stack.tobytes() == mats.astype(np.int8).tobytes()


def test_g2_maps_share_their_rows():
    # a cold build of H and the maps; the unit tables and the outer
    # automorphism stay warm, and the int8 stack is gathered from the maps
    # only when asked for
    rootsys._outer_automorphism()
    for fn in (generate_G2_2, rootsys._g2_stack, rootsys._brandt_closure):
        fn.cache_clear()
    tracemalloc.start()
    try:
        maps = generate_G2_2()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a row tuple per map, a __dict__ per LinMap and H in int64 kept 15.6
    # MB; 12 096 LinMaps on shared rows and the int8 stack kept 3.1 MB;
    # H in int8 (378 KiB) and one byte per row (95 KiB) keep 0.46 MiB
    assert retained < 2 ** 20
    # 1 and the 126 imaginary units
    assert len({id(row) for m in maps for row in m.rows2}) == 127
    assert not hasattr(maps[0], "__dict__")


def test_g2_maps_are_their_stack_rows():
    maps, stack = generate_G2_2(), rootsys._g2_stack()
    assert len(maps) == len(stack) == 12096
    for m, mat in zip(maps, stack.tolist()):
        assert type(m) is LinMap and m.dim == 8 and m.rows2 == tuple(map(tuple, mat))


def test_g2_maps_index_like_a_tuple():
    maps = generate_G2_2()
    as_tuple = tuple(maps)
    assert len(maps) == len(as_tuple) == 12096
    assert list(iter(maps)) == list(as_tuple) and tuple(reversed(maps)) == as_tuple[::-1]
    for i in (0, 1, 6047, 12095, -1, -12096, np.int64(7)):
        assert maps[i] == as_tuple[i]
    for i in (12096, -12097):
        with pytest.raises(IndexError):
            maps[i]
    with pytest.raises(TypeError):
        maps[1.0]
    assert maps[5:9] == as_tuple[5:9] and maps[::-4000] == as_tuple[::-4000]
    assert maps.index(as_tuple[300]) == 300 and as_tuple[300] in maps
    with pytest.raises(AttributeError):  # read only
        maps.rows = ()


@pytest.mark.parametrize("seed", [0, 29, 20260823])
def test_g2_maps_draw_like_a_tuple(seed):
    # what the sweep and the benchmark draw with, so neither digest moves
    maps = generate_G2_2()
    as_tuple = tuple(maps)
    a, b = random.Random(seed), random.Random(seed)
    assert [a.choice(maps) for _ in range(40)] == [b.choice(as_tuple) for _ in range(40)]
    assert a.sample(maps, 30) == b.sample(as_tuple, 30)
    assert a.getstate() == b.getstate()


def nested_conjugation(seq, x: AlgElem) -> AlgElem:
    """x -> a_1(a_2( ... (a_k x a_k^{-1}) ... )a_2^{-1})a_1^{-1} in exact
    Fraction arithmetic: the oracle of nested_conjugation_map."""
    out = x
    for a in reversed(seq):
        out = cd_multiply(a, cd_multiply(out, invert(a)))
    return out


def test_brandt_conjugation_rejects_non_units():
    # conj(a) is the inverse of a only when |a|^2 = 1; x -> 2 x (1/2) is
    # the identity, and so lattice-preserving, yet 2 is no unit
    for a in (one(8) * 2, one(8) + basis_unit(8, 1), one(4) * 2):
        with pytest.raises(ValueError):
            brandt_conjugation(a)
    with pytest.raises(ValueError):
        nested_conjugation_map((units(OCTAVIAN)[0], one(8) * 2))


def test_brandt_conjugations_are_automorphisms(rng):
    from octavia.rings import octavian_unit_classes
    real, brandt, imag = octavian_unit_classes()
    for a in brandt[:5]:
        assert is_automorphism_map(brandt_conjugation(a))
    # imaginary-unit conjugation x -> u x u^{-1} is not an automorphism of O
    assert not is_automorphism_map(brandt_conjugation(imag[0]))


def _is_automorphism_by_fraction_loop(m):
    """The former Fraction test: m(e_i e_j) = m(e_i) m(e_j) on all pairs."""
    def image(x):
        return AlgElem(m.dim, tuple(
            sum((c * Fraction(row[j], 2) for c, row in zip(x.coords, m.rows2)),
                Fraction(0))
            for j in range(m.dim)))

    basis = [basis_unit(m.dim, i) for i in range(m.dim)]
    return all(image(cd_multiply(x, y)) == cd_multiply(image(x), image(y))
               for x in basis for y in basis)


def test_automorphism_test_matches_fraction_loop(rng):
    _, brandt, imag = octavian_unit_classes()
    maps = rng.sample(generate_G2_2(), 10)
    maps += [brandt_conjugation(a) for a in rng.sample(brandt, 6) + rng.sample(imag, 6)]
    maps += [sandwich_map(g) for g in rng.sample(imag, 3)]
    us = units(OCTAVIAN)
    for _ in range(16):
        seq = tuple(rng.choice(us) for _ in range(rng.randint(1, 4)))
        maps.append(LinMap.from_callable(8, lambda x: nested_conjugation(seq, x)))
    expect = [_is_automorphism_by_fraction_loop(m) for m in maps]
    assert [is_automorphism_map(m) for m in maps] == expect
    assert True in expect and False in expect
    # images off the half-integer lattice: m(1) = 1/2, so m(1)^2 = 1/4
    off = LinMap(8, ((1,) + (0,) * 7,) + LinMap.identity(8).rows2[1:])
    assert _is_automorphism_by_fraction_loop(off) is False
    assert is_automorphism_map(off) is False


def test_nested_conjugation_criterion(rng):
    us = units(OCTAVIAN)
    agree = 0
    for _ in range(80):
        seq = tuple(rng.choice(us) for _ in range(rng.randint(1, 4)))
        m = nested_conjugation_map(seq)
        assert is_automorphism_bimult(seq) == is_automorphism_map(m)
        agree += 1
    assert agree == 80


def test_unit_corollary_on_imaginary_pairs():
    imag = imaginary_units()[:12]
    for g in imag:
        for h in imag:
            seq = (g, h)
            m = nested_conjugation_map(seq)
            assert unit_corollary_check(seq) == is_automorphism_map(m)


def test_nested_conjugation_map_matches_fraction_images(rng):
    us = units(OCTAVIAN)
    for _ in range(200):
        seq = tuple(rng.choice(us) for _ in range(rng.randint(1, 4)))
        assert nested_conjugation_map(seq) == LinMap.from_callable(
            8, lambda x: nested_conjugation(seq, x))
    with pytest.raises(ValueError):
        nested_conjugation_map(())


def _factor_by_fraction_loop(b, imag_set):
    """The first g of imaginary_units() with g^{-1} b imaginary, in exact
    Fraction arithmetic."""
    for g in imaginary_units():
        h = cd_multiply(invert(g), b)
        if h in imag_set:
            return g, h
    raise AssertionError(f"{b} has no imaginary factorization")


def test_factor_into_imaginaries():
    imag_set = set(imaginary_units())
    for b in units(OCTAVIAN):
        g, h = factor_into_imaginaries(b)
        assert real_part(g) == 0 and real_part(h) == 0
        assert cd_multiply(g, h) == b
        assert (g, h) == _factor_by_fraction_loop(b, imag_set)


def _bfs_closure(gens):
    """The int8 keys of the group that a stack of doubled-coordinate
    matrices generates, closed breadth first from the identity: the
    oracle of the stabilizer chains."""
    seen = set(rootsys._keys(LinMap.identity(8).matrix2()[None]))
    frontier = list(seen)
    while frontier:
        mats = np.frombuffer(b"".join(frontier), dtype=np.int8).reshape(-1, 8, 8)
        frontier = []
        for g in gens:
            for k in rootsys._keys(rootsys._product2(mats.astype(np.int64), g)):
                if k not in seen:
                    seen.add(k)
                    frontier.append(k)
    return seen


def _brandt_generators():
    _, brandt, _ = octavian_unit_classes()
    return np.stack([brandt_conjugation(brandt[i]).matrix2()
                     for i in rootsys._BRANDT_GENERATORS])


def _w_e8_generators():
    b = octavian_unit_classes()[1][0]
    return np.concatenate([rootsys._w_e7_generators(), right_mult_map(b).matrix2()[None]])


def _members(chain, mats):
    """Which matrices of a stack sift through the chain to the identity."""
    res, stop = rootsys._sift(chain, rootsys._unit_perms(mats))
    return (stop == len(chain)) & (res == np.arange(res.shape[1])).all(1)


def test_brandt_closure_from_three_generators_is_all_of_h():
    # H's chain order against an independent count
    _, brandt, _ = octavian_unit_classes()
    full = _bfs_closure(np.stack([brandt_conjugation(a).matrix2() for a in brandt]))
    assert len(full) == 6048
    assert rootsys._order(rootsys._stabilizer_chain(_brandt_generators())) == len(full)
    h = rootsys._brandt_closure()
    assert len(h) == 6048 and set(rootsys._keys(h)) == full
    with_phi = np.concatenate([_brandt_generators(),
                               rootsys._outer_automorphism().matrix2()[None]])
    assert rootsys._order(rootsys._stabilizer_chain(with_phi)) == len(g2_key_set())


def test_sign_change_automorphisms_keep_the_lattice():
    # _outer_automorphism takes the first sign change of e1..e7 outside H
    # and relies on every automorphic one lying in G2(2)
    autos = [m for m in (LinMap(8, tuple(map(tuple, np.diag((2,) + s).tolist())))
                         for s in itertools.product((2, -2), repeat=7))
             if is_automorphism_map(m)]
    assert len(autos) == 8 and {m.key() for m in autos} <= g2_key_set()
    h = set(rootsys._keys(rootsys._brandt_closure()))
    assert sum(m.key() in h for m in autos) == 4
    assert rootsys._outer_automorphism() in autos
    assert rootsys._outer_automorphism().key() not in h


def _full_scan(m, outer_first):
    """The 126 x 126 sandwich-pair scan in g-major order, one g at a time:
    the first (g, h) whose composite leaves a G2(2) residue."""
    imag = imaginary_units()
    s = np.stack([sandwich_map(g).matrix2() for g in imag])
    keys = g2_key_set()
    m2 = m.matrix2()
    for i, g in enumerate(imag):
        # row-vector convention: matrix(a o b) = matrix(b) @ matrix(a)
        pair = s[i] @ s // 2 if outer_first else s @ s[i] // 2
        cand = m2 @ pair // 2
        for j, c in enumerate(cand):
            phi = LinMap(8, tuple(map(tuple, c.tolist())))
            if phi.key() in keys:
                return g, imag[j], phi
    raise AssertionError("no sandwich pair leaves an automorphism")


def test_g2_key_set_matches_element_keys():
    assert g2_key_set() == frozenset(m.key() for m in generate_G2_2())


def test_class_first_search_matches_full_scan():
    rng = random.Random(11)
    imag = imaginary_units()
    g2 = generate_G2_2()
    for _ in range(200):
        stab = e8_element(rng.choice(imag), rng.choice(imag), one(8), rng.choice(g2))
        assert rootsys._sigma_residue_search(stab, False) == _full_scan(stab, False)
        m = e7_element(rng.choice(imag), rng.choice(imag), rng.choice(g2))
        assert rootsys._sigma_residue_search(m, True) == _full_scan(m, True)


def _int8_search(m, outer_first):
    """The int8 residue search that the float32 matmul replaced, its test
    oracle: int8 composites of the 120 class-first pairs, one int8 matmul,
    floor halving, every key built, the first hit in ascending pair order."""
    ks = np.unique(rootsys._imaginary_factor_table()[3])
    s = rootsys._sandwich_stack()
    gs, hs = s[ks // len(s)], s[ks % len(s)]
    comps = rootsys._product2(gs, hs) if outer_first else rootsys._product2(hs, gs)
    m2 = m.matrix2()
    if np.abs(m2).max() > 2:
        raise ValueError("no sandwich-pair residue is an automorphism")
    cand = m2.astype(np.int8) @ comps.astype(np.int8)
    cand //= 2
    keys = g2_key_set()
    imag = imaginary_units()
    for k, c, key in zip(ks.tolist(), cand, rootsys._keys(cand)):
        if key in keys:
            g, h = divmod(k, len(imag))
            return imag[g], imag[h], LinMap(8, tuple(map(tuple, c.tolist())))
    raise ValueError("no sandwich-pair residue is an automorphism")


def _outcome(search, m, outer_first):
    try:
        return search(m, outer_first)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("outer_first", [True, False])
def test_float32_search_matches_int8_search(outer_first):
    # W(E7) elements, W(E8) stabilizer forms and matrices with entries in
    # [-2, 2] that are no isometry (odd candidates, floor halving)
    rng = random.Random(29)
    imag, g2 = imaginary_units(), generate_G2_2()
    hits = 0
    for i in range(300):
        g, h, phi = rng.choice(imag), rng.choice(imag), rng.choice(g2)
        if i % 3 == 0:
            m = e7_element(g, h, phi)
        elif i % 3 == 1:
            m = e8_element(g, h, one(8), phi)
        else:
            m = LinMap(8, tuple(tuple(rng.randint(-2, 2) for _ in range(8))
                                for _ in range(8)))
        got = _outcome(rootsys._sigma_residue_search, m, outer_first)
        assert got == _outcome(_int8_search, m, outer_first)
        hits += isinstance(got, tuple)
    assert hits >= 100


def test_class_composites_are_exact_in_float32():
    # both factors of the search matmul have entries in [-2, 2], so its
    # sums stay within 8 * 2 * 2 = 32 < 2^24 and float32 is exact
    for outer_first in (True, False):
        ks, comps = rootsys._class_composites(outer_first)
        assert comps.dtype == np.float32 and comps.shape == (120, 8, 8)
        assert np.abs(comps).max() == 2 and np.array_equal(comps, np.round(comps))
        assert list(ks) == sorted(ks) and all(type(k) is int for k in ks)


def test_one_chain_e8_element_matches_nested_products(rng):
    imag, g2, us = imaginary_units(), generate_G2_2(), units(OCTAVIAN)
    for _ in range(200):
        e, f = (rng.choice(imag + (one(8), -one(8))) for _ in range(2))
        b, phi = rng.choice(us), rng.choice(g2)
        assert e8_element(e, f, b, phi) == (
            right_mult_map(b) * (sandwich_map(f) * (sandwich_map(e) * phi)))


def test_det_is_exact():
    assert LinMap.identity(8).det() == 1
    assert LinMap(4, tuple(tuple(-2 * int(i == j) for j in range(4))
                           for i in range(4))).det() == 1
    root = all_roots("e8")[0]
    assert LinMap.from_callable(8, lambda x: reflect(x, root)).det() == -1
    assert sandwich_map(imaginary_units()[0]).det() == 1
    b = one(8) + basis_unit(8, 1)  # |b|^2 = 2, so det(x -> x b) = |b|^8 = 16
    assert right_mult_map(b).det() == 16
    half = LinMap(2, ((1, 0), (0, 2)))
    assert half.det() == Fraction(1, 2)
    swap = LinMap(3, ((0, 2, 0), (2, 0, 0), (0, 0, 2)))
    assert swap.det() == -1
    singular = LinMap(2, ((2, 4), (1, 2)))
    assert singular.det() == 0


def test_e8_decompose_rejects_odd_isometries():
    # x -> conj(x) fixes 1 and the lattice but has det -1: the decomposition
    # search fails on it, and the error names the determinant
    m = LinMap.from_callable(8, conj)
    assert m.is_orthogonal() and m.det() == -1
    with pytest.raises(ValueError, match="even isometry"):
        e8_decompose(m)


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
    # entries beyond an isometry's are rejected before the float32 search
    for scale in (2, 64):
        with pytest.raises(ValueError):
            e7_normal_form(LinMap(8, tuple(
                tuple(2 * scale * int(i == j) for j in range(8)) for i in range(8))))


def test_w_e8_order():
    assert w_e8_order() == 240 * 120 * 12096


def test_w_e8_orbit_stabilizer_proof():
    # |W+(E8)| = |orbit of 1| x |stabilizer cosets| x |G2(2)| by hand, the
    # oracle of the chain; _sigma_residue_search relies on the third fact
    all_units = units(OCTAVIAN)
    orbit = set()
    for b in all_units:
        rho = right_mult_map(b)
        assert rho.is_orthogonal() and rho.det() == 1, b
        orbit.add(rho.rows2[0])
    assert orbit == {u.coords2 for u in all_units}
    # every unit factors into two imaginaries: 120 stabilizer cosets mod sign
    cosets = set()
    for b in all_units:
        g, h = factor_into_imaginaries(b)
        assert cd_multiply(g, h) == b
        cosets.add(min(b, -b, key=lambda u: u.coords))
    assert len(cosets) == 120
    # pair (g, h), its class-first pair (g', h'): equal +-gh must put
    # sigma(h') o sigma(g') o sigma(g) o sigma(h) in G2(2); one batched
    # product per g keeps the temporaries small
    _, prod, _, class_first = rootsys._imaginary_factor_table()
    s = rootsys._sandwich_stack().astype(np.int8)
    imag = imaginary_units()
    n = len(imag)
    keys = g2_key_set()
    for i, g in enumerate(imag):
        pairs = rootsys._product2(s, s[i])  # sigma(g) o sigma(h) for every h
        k1 = class_first[prod[i * n:(i + 1) * n]]
        back = rootsys._product2(s[k1 // n], s[k1 % n])  # sigma(h') o sigma(g')
        assert set(rootsys._keys(rootsys._product2(pairs, back))) <= keys, g
    assert w_e8_order() == len(orbit) * len(cosets) * len(keys)


def test_chain_orders_do_not_depend_on_generator_order():
    rng = random.Random(22)
    for gens, order in ((_brandt_generators(), 6048),
                        (rootsys._w_e7_generators(), 1451520),
                        (_w_e8_generators(), 348364800)):
        for _ in range(3):
            shuffled = gens[rng.sample(range(len(gens)), len(gens))]
            assert rootsys._order(rootsys._stabilizer_chain(shuffled)) == order


def test_normal_form_elements_sift_through_their_chains():
    rng = random.Random(23)
    imag = imaginary_units()
    g2 = generate_G2_2()
    us = units(OCTAVIAN)
    e7 = np.stack([e7_element(rng.choice(imag), rng.choice(imag), rng.choice(g2)).matrix2()
                   for _ in range(200)])
    e8 = np.stack([e8_element(rng.choice(imag), rng.choice(imag), rng.choice(us),
                              rng.choice(g2)).matrix2() for _ in range(200)])
    assert _members(rootsys._stabilizer_chain(rootsys._w_e7_generators()), e7).all()
    assert _members(rootsys._stabilizer_chain(_w_e8_generators()), e8).all()


def test_normal_forms_sift_through_the_g2_chain():
    # the residues phi of e8_decompose and e7_normal_form are members of
    # G2(2) by the stabilizer chain of the Brandt generators and the outer
    # automorphism, an oracle apart from the g2_key_set lookup that the
    # searches use; each decomposition rebuilds its input by plain products
    chain = rootsys._stabilizer_chain(np.concatenate(
        [_brandt_generators(), rootsys._outer_automorphism().matrix2()[None]]))
    assert rootsys._order(chain) == 12096
    rng = random.Random(41)
    imag, g2, us = imaginary_units(), generate_G2_2(), units(OCTAVIAN)
    phis = []
    for i in range(200):
        e, f = (rng.choice(imag + (one(8), -one(8))) for _ in range(2))
        m = e8_element(e, f, rng.choice(us), rng.choice(g2))
        e, f, b, phi = e8_decompose(m)
        assert right_mult_map(b) * (sandwich_map(f) * (sandwich_map(e) * phi)) == m
        phis.append(phi.matrix2())
        m = sandwich_map(rng.choice(imag)) * (sandwich_map(rng.choice(imag)) * rng.choice(g2))
        b, phi, (g, h) = e7_normal_form(m)
        assert sandwich_map(g) * (sandwich_map(h) * phi) == m
        assert b in (cd_multiply(g, h), -cd_multiply(g, h))
        phis.append(phi.matrix2())
    assert _members(chain, np.stack(phis)).all()
    # and the chain is no sieve that passes everything
    assert not _members(chain, sandwich_map(imag[0]).matrix2()[None]).any()


def test_right_multiplications_leave_w_e7():
    # W+(E7) fixes 1 and x -> x b maps 1 to b, so only b = 1 sifts
    chain = rootsys._stabilizer_chain(rootsys._w_e7_generators())
    us = units(OCTAVIAN)
    member = _members(chain, np.stack([right_mult_map(b).matrix2() for b in us]))
    assert [b for b, m in zip(us, member) if m] == [one(8)]


def test_chain_rejects_matrices_that_do_not_permute_the_units():
    ident = LinMap.identity(8).matrix2()
    odd = ident.copy()
    odd[0, 0] = 1  # a half-integer unit goes off the lattice
    projection = np.diag([2] + [0] * 7)  # e1 goes to 0
    for m in (2 * ident, odd, projection):
        with pytest.raises(ValueError, match="does not permute the unit octavians"):
            rootsys._unit_perms(m[None])
        with pytest.raises(ValueError, match="does not permute the unit octavians"):
            rootsys._stabilizer_chain(np.stack([ident, m]))


@pytest.mark.heavy
def test_w_e7_closure_order():
    # the breadth-first closure of the seven generators: about 30 s and 1.6 GB
    from octavia.rootsys import generate_w_e7
    assert generate_w_e7() == len(_bfs_closure(rootsys._w_e7_generators())) == 1451520
