import os
import random

import numpy as np
import pytest

import octavia.rings


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
