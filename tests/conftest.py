import os
import random
from functools import lru_cache

import numpy as np
import pytest

import octavia.rings
from octavia.algebra import _mult2
from octavia.rings import _conj_sign, _lattice_classes, enumerate_ball, left_content


def pytest_collection_modifyitems(config, items):
    if os.environ.get("OCTAVIA_HEAVY"):
        return
    skip = pytest.mark.skip(reason="heavy brute-force oracle; set OCTAVIA_HEAVY=1 to run")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def nprng():
    return np.random.default_rng(20260823)


@pytest.fixture
def euclid_runs(monkeypatch):
    """The side of each one-pair Euclid chain (rings._euclid_chain) run
    from now on, with the trace cache of rings._euclid cleared."""
    calls = []
    euclid_chain = octavia.rings._euclid_chain

    def counted(*args, **kwargs):
        calls.append(args[3])
        return euclid_chain(*args, **kwargs)

    octavia.rings._euclid.cache_clear()
    monkeypatch.setattr(octavia.rings, "_euclid_chain", counted)
    return calls


@lru_cache(maxsize=None)
def _pair_table(ring, radius):
    """The keys of the pairs (c, d) != (0, 0) with max(|c|^2, |d|^2) <=
    radius, by brute force: the distinct rows (|c|^2, |d|^2, 2 c^-bar d)
    in increasing order, the number of pairs of each, and how many of
    those are left coprime, by one Euclid row per pair (left_content).

    c runs over the first member of each lattice class c^-bar O
    (rings._lattice_classes) and d over the ball, each pair counted with
    its class size: a member c' of the class has the pairs
    (c', c' (c^-1 d)), with the keys of (c, d).
    """
    pts2 = enumerate_ball(ring, radius)
    reps, weight = _lattice_classes(ring, radius)
    # the first pair is (0, 0): reps[0] and pts2[0] are zero
    c2 = np.repeat(pts2[reps], len(pts2), axis=0)[1:]
    d2 = np.tile(pts2, (len(reps), 1))[1:]
    mult = np.repeat(weight, len(pts2))[1:]
    coprime = mult * (left_content(ring, c2, d2) == 4)
    keys = np.column_stack([(c2 * c2).sum(axis=1) >> 2, (d2 * d2).sum(axis=1) >> 2,
                            _mult2(c2 * _conj_sign(ring.dim), d2)])
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    head = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    return (keys[head], np.add.reduceat(mult[order], head),
            np.add.reduceat(coprime[order], head))


@pytest.fixture
def pair_table():
    """The brute-force key table of the pairs of a ball (_pair_table), the
    oracle of the primitive null vectors (rings._null_vectors)."""
    return _pair_table
