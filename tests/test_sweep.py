"""The output-identity sweep: seeded records of the exact outputs, one
sha256 per section in tests/golden/sweep.json.

"The same" (ROADMAP aim 2) means that coset representatives, Euclid
traces, group orders and error messages stay identical.  Each section
below is a deterministic list of records, each the canonical JSON of one
input and what the library returns for it.  The golden file holds the
sha256 of each section's records and a short fingerprint of every record,
so a mismatch names the first record that differs.

Regenerate, from the root of a checkout, only when a section's inputs
change, never to absorb a changed output:

    PYTHONPATH=src python tests/test_sweep.py > tests/golden/sweep.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from octavia import rootsys
from octavia.algebra import AlgElem, one, zero
from octavia.autoforms import SeriesParams, _coprime_key_terms, _key_terms, fourier_coefficient
from octavia.hyperweyl import (
    Inv,
    Trans,
    build_w_ac,
    build_w_tilde_cd,
    canonical_pair,
    coset_reps,
    simple_alpha,
)
from octavia.rings import (
    HURWITZ,
    OCTAVIAN,
    Z,
    _lattice_classes,
    enumerate_ball,
    is_left_coprime,
    is_right_coprime,
    left_euclid,
    nearest,
    random_element,
    right_euclid,
    ring_by_name,
    shell_counts,
    units,
)
from octavia.uhp import UhpPoint

GOLDEN = Path(__file__).parent / "golden" / "sweep.json"
RINGS = (Z, HURWITZ, OCTAVIAN)


def _c2(x: AlgElem) -> list:
    return list(x.coords2)


def _word(w) -> list:
    return [["s"] if isinstance(t, Inv) else ["t", _c2(t.y)] if isinstance(t, Trans)
            else ["u", _c2(t.eps)] for t in w.tokens]


def _euclid():
    """Both sided chains and both coprimality tests of seeded pairs,
    c = 0 among them."""
    for ring in RINGS:
        rng = random.Random(f"euclid-{ring.name}")
        for _ in range(80):
            m = rng.choice((2, 4, 6, 10))
            a, c = random_element(ring, rng, m), random_element(ring, rng, m)
            rec = [ring.name, _c2(a), _c2(c)]
            if c.is_zero():
                rec.append(None if a.is_zero() else
                           [is_right_coprime(ring, a, c), is_left_coprime(ring, a, c)])
            else:
                for tr in (right_euclid(ring, a, c), left_euclid(ring, a, c)):
                    rec.append([tr.side, [_c2(q) for q in tr.quotients],
                                [_c2(r) for r in tr.remainders]])
                rec.append([is_right_coprime(ring, a, c), is_left_coprime(ring, a, c)])
            yield rec


def _nearest():
    """nearest on rational points, half of them on the midpoints where
    ties are broken."""
    for ring in RINGS:
        rng = random.Random(f"nearest-{ring.name}")
        for _ in range(200):
            den = rng.choice((2, 4, 3, 6))
            x = [Fraction(rng.randint(-4 * den, 4 * den), den) for _ in range(ring.dim)]
            yield [ring.name, [str(v) for v in x], _c2(nearest(ring, x))]


def _cosets():
    """coset_reps rows and their coset words w~_{c,d}."""
    for ring, bound in ((Z, 9), (HURWITZ, 3), (OCTAVIAN, 1)):
        n = ring.dim
        for row in coset_reps(ring, bound).tolist():
            c, d = AlgElem.from_coords2(n, row[:n]), AlgElem.from_coords2(n, row[n:])
            yield [ring.name, bound, row[:n], row[n:], _word(build_w_tilde_cd(ring, c, d))]


def _classes():
    """_lattice_classes: the first member and size of each class."""
    for ring, bound in ((Z, 9), (HURWITZ, 9), (OCTAVIAN, 2)):
        reps, weight = _lattice_classes(ring, bound)
        for r, w in zip(reps.tolist(), weight.tolist()):
            yield [ring.name, bound, r, w]


def _terms():
    """The octavian series terms: cols, mult and starts, in blocks of 512
    terms; not the stored pair, which is any member of its key."""
    for table in (_key_terms, _coprime_key_terms):
        for radius in (1, 2):
            cols, mult, starts, _ = table(OCTAVIAN, radius)
            yield [table.__name__, radius, "starts", starts.tolist()]
            for lo in range(0, len(mult), 512):
                yield [table.__name__, radius, lo, cols[:, lo:lo + 512].tolist(),
                       mult[lo:lo + 512].tolist()]


def _normal_forms():
    """e7_normal_form and e8_decompose of seeded W+(E7) and W+(E8)
    elements, with the choices that built them."""
    rng = random.Random("normal-forms")
    imag, g2, us = rootsys.imaginary_units(), rootsys.generate_G2_2(), units(OCTAVIAN)
    real = imag + (one(8), -one(8))
    for _ in range(200):
        i, j, k = rng.randrange(len(imag)), rng.randrange(len(imag)), rng.randrange(len(g2))
        m = rootsys.e7_element(imag[i], imag[j], g2[k])
        b, phi, (g, h) = rootsys.e7_normal_form(m)
        yield ["e7", i, j, k, _c2(b), phi.rows2, _c2(g), _c2(h)]
    for _ in range(200):
        i, j = rng.randrange(len(real)), rng.randrange(len(real))
        u, k = rng.randrange(len(us)), rng.randrange(len(g2))
        m = rootsys.e8_element(real[i], real[j], us[u], g2[k])
        e, f, b, phi = rootsys.e8_decompose(m)
        yield ["e8", i, j, u, k, _c2(e), _c2(f), _c2(b), phi.rows2]


def _groups():
    """Group orders, the orbit sizes of each stabilizer chain, and the
    root closures."""
    yield ["W+(D4)", rootsys.d4_even_count()]
    yield ["G2(2)", len(rootsys.g2_key_set())]
    yield ["W+(E7)", rootsys.generate_w_e7()]
    yield ["W+(E8)", rootsys.w_e8_order()]
    b = rootsys.octavian_unit_classes()[1][0]
    for name, gens in (("W+(E7)", rootsys._w_e7_generators()),
                       ("W+(E8)", np.concatenate([rootsys._w_e7_generators(),
                                                  rootsys.right_mult_map(b).matrix2()[None]]))):
        chain = rootsys._stabilizer_chain(gens)
        yield [name, "chain", [[point, len(trans)] for point, trans, _, _ in chain]]
    for algebra in ("d4", "e7", "e8"):
        yield [algebra, [_c2(r) for r in rootsys.all_roots(algebra)],
               rootsys.theta_marks(algebra)]


def _bad_inputs():
    """The exception and message of each of a fixed list of bad inputs."""
    h = units(HURWITZ)
    two = 2 * one(4)
    cases = [
        ("ring_by_name", lambda: ring_by_name("gaussian")),
        ("nearest length", lambda: nearest(HURWITZ, [1, 2, 3])),
        ("euclid zero divisor", lambda: right_euclid(HURWITZ, one(4), zero(4))),
        ("euclid non-member", lambda: left_euclid(HURWITZ, AlgElem(4, [Fraction(1, 3)] * 4),
                                                  one(4))),
        ("coprime (0, 0)", lambda: is_left_coprime(OCTAVIAN, zero(8), zero(8))),
        ("ball negative", lambda: enumerate_ball(Z, -1)),
        ("shell_counts 0", lambda: shell_counts(HURWITZ, 0)),
        ("coset_reps 0", lambda: coset_reps(Z, 0)),
        ("w_ac non-unit", lambda: build_w_ac(HURWITZ, two, zero(4))),
        ("w_ac not coprime", lambda: build_w_ac(HURWITZ, two, two)),
        ("w~_cd not coprime", lambda: build_w_tilde_cd(OCTAVIAN, 2 * one(8), 2 * one(8))),
        ("canonical_pair", lambda: canonical_pair(HURWITZ, two, two)),
        ("simple_alpha", lambda: simple_alpha(HURWITZ, 9)),
        ("d4 non-unit", lambda: rootsys.d4_even_element(two, one(4))),
        ("d4 triality", lambda: rootsys.d4_even_element(h[1], one(4))),
        ("brandt non-unit", lambda: rootsys.brandt_conjugation(2 * one(8))),
        ("e7 real unit", lambda: rootsys.e7_element(one(8), one(8), rootsys.LinMap.identity(8))),
        ("e8 odd isometry", lambda: rootsys.e8_decompose(rootsys.LinMap(8, tuple(
            tuple(-2 * (i == j) if i == 0 else 2 * (i == j) for j in range(8))
            for i in range(8))))),
        ("chain non-permutation", lambda: rootsys._unit_perms(
            (2 * rootsys.LinMap.identity(8).matrix2())[None])),
        ("radius float", lambda: SeriesParams(HURWITZ, 3.0, 2.0, UhpPoint([0] * 4, 1))),
        ("fourier mu", lambda: fourier_coefficient([0.5, 0, 0, 0], 1.0, 3.0, 2, HURWITZ)),
    ]
    for name, call in cases:
        try:
            call()
        except Exception as exc:  # the record is the exception itself
            yield [name, type(exc).__name__, str(exc)]
        else:
            yield [name, None, None]


SECTIONS = {"euclid": _euclid, "nearest": _nearest, "cosets": _cosets,
            "lattice_classes": _classes, "key_terms": _terms,
            "normal_forms": _normal_forms, "groups": _groups, "bad_inputs": _bad_inputs}


def _lines(section):
    return [json.dumps(r, separators=(",", ":"), sort_keys=True) for r in SECTIONS[section]()]


def _fingerprint(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:8]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_outputs_match_the_sweep():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(SECTIONS)
    for section, want in golden.items():
        lines = _lines(section)
        if _digest(lines) == want["sha256"]:
            continue
        prints = [_fingerprint(line) for line in lines]
        first = next((i for i, (a, b) in enumerate(zip(prints, want["records"])) if a != b),
                     min(len(prints), len(want["records"])))
        got = lines[first] if first < len(lines) else "(no record)"
        raise AssertionError(f"section {section}: {len(lines)} records against "
                             f"{len(want['records'])}; record {first} differs, now {got[:2000]}")


if __name__ == "__main__":
    out = {}
    for section in SECTIONS:
        lines = _lines(section)
        out[section] = {"sha256": _digest(lines),
                        "records": [_fingerprint(line) for line in lines]}
    json.dump(out, sys.stdout, indent=0)
    print()
