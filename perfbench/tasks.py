"""Task kinds of the in-process workloads, their seeded inputs and checks.

A workload is a stream of blocks.  Each block holds a fixed count of
every task kind, shuffled by the seed, so every run sees the same mix
and the latency percentiles fall inside a stable band: for `exact` the
median falls among the Hurwitz pair tasks and p90 among the octavian
ones; for `series` the median falls among the Eisenstein tasks and p90
among the octavian series tasks.  A run measures whole blocks, at least
`min_blocks` of them (100 tasks, so p90 has ten samples beyond it), and
more while its time lasts.  Per-layer metrics and the output digest are
taken over those first `min_blocks` blocks, which every run completes,
so their counts repeat exactly for a seed.

A workload object imports `octavia` when it is made, so this module
itself loads without the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

# Fourier modes: vectors of the dual of the Hurwitz lattice (D4).
FOURIER_MUS = ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (2, 0, 0, 0))
FOURIER_VS = (0.4, 0.5, 0.6)
S = 5.0  # series exponent, inside the convergence region of every ring


def rel_bound(x):
    """The 1e-12 * max(1, |x|) bound the test suite applies to series."""
    return 1e-12 * max(1.0, abs(x))


@dataclass(frozen=True)
class Kind:
    name: str
    per_block: int
    run: object    # inputs -> output
    check: object  # (inputs, output) -> bool


class Workload:
    name = ""
    min_blocks = 1
    probe = "fraction"  # the speed probe that slows down as its tasks do

    def __init__(self, tiny=False):
        self.tiny = tiny
        import octavia.algebra as algebra
        import octavia.autoforms as autoforms
        import octavia.hyperweyl as hyperweyl
        import octavia.rings as rings
        import octavia.rootsys as rootsys
        import octavia.uhp as uhp
        self.algebra, self.rings, self.hyperweyl = algebra, rings, hyperweyl
        self.rootsys, self.uhp, self.autoforms = rootsys, uhp, autoforms
        self.kinds = self.make_kinds()

    def make_kinds(self):
        raise NotImplementedError

    def prepare(self):
        """Set-up work that input generation needs."""

    def draw(self, kind, rng):
        raise NotImplementedError

    def block(self, seed, b):
        """The b-th block of the seeded stream: [(kind, inputs), ...]."""
        rng = random.Random(f"block:{seed}:{b}")
        order = [k for k in self.kinds for _ in range(k.per_block)]
        rng.shuffle(order)
        return [(k, self.draw(k, rng)) for k in order]

    def warmups(self, seed):
        """One task of each kind, from a stream apart from the blocks."""
        rng = random.Random(f"warmup:{seed}")
        return [(k, self.draw(k, rng)) for k in self.kinds]

    def canonical(self, kind, inputs, out):
        """JSON-able record of an output for the digest, or None."""
        return None

    @property
    def block_size(self):
        return sum(k.per_block for k in self.kinds)


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- exact -------------------------------------------------------------------


class Exact(Workload):
    """Exact arithmetic with warm caches: Euclid chains, coset words and
    W+(E8) normal forms, with almost no numpy."""

    name = "exact"
    min_blocks = 5

    def make_kinds(self):
        n = (1, 1, 1) if self.tiny else (12, 5, 3)
        return [
            Kind("pair_hurwitz", n[0], self.pair_task, self.pair_check),
            Kind("e8_round_trip", n[1], self.e8_task, self.e8_check),
            Kind("pair_octavian", n[2], self.pair_task, self.pair_check),
        ]

    def prepare(self):
        rs = self.rootsys
        self.g2 = rs.generate_G2_2()
        self.imag = rs.imaginary_units()
        self.units8 = self.rings.units(self.rings.OCTAVIAN)

    def draw(self, kind, rng):
        rings = self.rings
        if kind.name == "e8_round_trip":
            return (rng.choice(self.imag), rng.choice(self.imag),
                    rng.choice(self.units8), rng.choice(self.g2))
        ring = rings.HURWITZ if kind.name == "pair_hurwitz" else rings.OCTAVIAN
        a = rings.random_element(ring, rng)
        c = rings.random_element(ring, rng)
        while c.is_zero():  # the divisor of a Euclid run must be nonzero
            c = rings.random_element(ring, rng)
        return ring, a, c

    def pair_task(self, inputs):
        ring, a, c = inputs
        rings, hw = self.rings, self.hyperweyl
        tr = rings.right_euclid(ring, a, c)
        out = {"trace": tr, "w_ac": None, "w_tilde": None, "left_coprime": False}
        if self.algebra.norm_sq(tr.last_divisor) == 1:
            out["w_ac"] = hw.build_w_ac(ring, a, c)
        if rings.is_left_coprime(ring, a, c):
            # the pair (c, d) = (c, a): left coprime as (d, c)
            out["left_coprime"] = True
            out["w_tilde"] = hw.build_w_tilde_cd(ring, c, a)
        return out

    def pair_check(self, inputs, out):
        ring, a, c = inputs
        alg, hw = self.algebra, self.hyperweyl
        tr = out["trace"]
        if tr.inputs != (a, c) or not tr.replay_ok():
            return False
        if (alg.norm_sq(tr.last_divisor) == 1) != (out["w_ac"] is not None):
            return False
        if out["w_ac"] is not None:
            got = hw.apply_word(out["w_ac"], hw.minus_delta(ring.dim))
            if got != hw.orbit_target(a, c):
                return False
        if out["left_coprime"] != (out["w_tilde"] is not None):
            return False
        if out["w_tilde"] is not None:
            row = hw.row_act((alg.zero(ring.dim), alg.one(ring.dim)), out["w_tilde"])
            if row != (c, a) and row != (-c, -a):
                return False
        return True

    def e8_task(self, inputs):
        rs = self.rootsys
        m = rs.e8_element(*inputs)
        return m, rs.e8_decompose(m)

    def e8_check(self, inputs, out):
        m, parts = out
        return self.rootsys.e8_element(*parts).key() == m.key()

    def canonical(self, kind, inputs, out):
        def el(x):
            return list(x.coords2)

        def word(w):
            if w is None:
                return None
            toks = []
            for t in w.tokens:
                if hasattr(t, "y"):
                    toks.append(["t", el(t.y)])
                elif hasattr(t, "eps"):
                    toks.append(["u", el(t.eps)])
                else:
                    toks.append(["s"])
            return toks

        if kind.name == "e8_round_trip":
            e, f, b, phi = out[1]
            return [kind.name, el(e), el(f), el(b), [list(r) for r in phi.rows2]]
        tr = out["trace"]
        return [kind.name, [el(q) for q in tr.quotients],
                [el(r) for r in tr.remainders], word(out["w_ac"]),
                word(out["w_tilde"])]


# -- series ------------------------------------------------------------------


class Series(Workload):
    """Hurwitz and octavian series at seeded points with warm caches."""

    name = "series"
    min_blocks = 4
    probe = "numpy"

    def make_kinds(self):
        # Fourier takes about half the wall time at one task in 25
        n = (1, 1, 1, 1) if self.tiny else (17, 5, 2, 1)
        return [
            Kind("eisenstein", n[0], self.eis_task, self.eis_check),
            Kind("poincare", n[1], self.poincare_task, self.poincare_check),
            Kind("octavian_series", n[2], self.oct_task, self.oct_check),
            Kind("fourier", n[3], self.fourier_task, self.fourier_check),
        ]

    @property
    def radii(self):
        # eisenstein, poincare, octavian eisenstein, octavian poincare, fourier
        return (2, 2, 1, 1, 1) if self.tiny else (9, 6, 2, 1, 4)

    def draw(self, kind, rng):
        import numpy as np
        if kind.name == "fourier":
            return rng.choice(FOURIER_MUS), rng.choice(FOURIER_VS)
        dim = 8 if kind.name == "octavian_series" else 4
        u = np.array([rng.uniform(-0.5, 0.5) for _ in range(dim)])
        return self.uhp.UhpPoint(u, rng.uniform(0.8, 1.5))

    def _params(self, ring, radius, z):
        return self.autoforms.SeriesParams(ring, S, radius, z)

    def eis_task(self, z):
        af, hw, uhp = self.autoforms, self.hyperweyl, self.uhp
        ring, radius = self.rings.HURWITZ, self.radii[0]
        zi = uhp.act_word(hw.GroupWord(ring, (hw.Inv(),)), z)
        return (af.eisenstein_truncated(self._params(ring, radius, z)),
                af.eisenstein_truncated(self._params(ring, radius, zi)))

    def eis_check(self, z, out):
        e, ei = out
        return abs(e - ei) <= rel_bound(e)

    def poincare_task(self, z):
        return self.autoforms.poincare_truncated(
            self._params(self.rings.HURWITZ, self.radii[1], z))

    def _poincare_ok(self, z, p):
        # the N pairs (0, unit) alone add up to v^s; every term is positive
        return (math.isfinite(p.real) and abs(p.imag) <= rel_bound(p)
                and p.real >= z.v ** S * (1 - 1e-12))

    def poincare_check(self, z, p):
        return self._poincare_ok(z, p)

    def oct_task(self, z):
        af, ring = self.autoforms, self.rings.OCTAVIAN
        return (af.eisenstein_truncated(self._params(ring, self.radii[2], z)),
                af.poincare_truncated(self._params(ring, self.radii[3], z)))

    def oct_check(self, z, out):
        e, p = out
        n_units = len(self.rings.units(self.rings.OCTAVIAN))
        # the coprime pairs of the smaller ball are a subset of all pairs
        return (self._poincare_ok(z, p) and abs(e.imag) <= rel_bound(e)
                and n_units * p.real <= e.real * (1 + 1e-12))

    def fourier_task(self, inputs):
        mu, v = inputs
        return self.autoforms.fourier_coefficient(
            list(mu), v, S, self.radii[4], self.rings.HURWITZ,
            grid=2 if self.tiny else 4)

    def fourier_check(self, inputs, d):
        # u -> -u maps the truncation set to itself, so the coefficient is real
        c = d.coefficient
        return (math.isfinite(c.real) and abs(c.imag) <= rel_bound(c)
                and math.isfinite(d.error_estimate))


WORKLOADS = {"exact": Exact, "series": Series}
