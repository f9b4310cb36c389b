"""Outside-in tracing of the octavia layers.

The tracer wraps each traced function at every module binding that holds
it, so a call that crosses modules through a `from .rings import ...`
copy is seen as well as a call through the home module.  Each call
records a span (name, start, end, parent, task, counters); spans stay in
memory and are written out when the run ends.  Nothing under `src/` is
changed: the wrappers are installed at run time and only in traced runs.

`rings._euclid` is the one private name traced: every Euclid run, from
`right_euclid`, `left_euclid` and the coprimality tests, goes through it,
so it is the only place where runs can be counted.  A traced name that a
later version of the package no longer has is skipped, and the metrics
built on it read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from time import perf_counter

MODULES = ("algebra", "rings", "hyperweyl", "rootsys", "uhp", "autoforms", "cli")


def _binder(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return arguments


# (home module, attribute, span name, counters from (arguments, result))
TRACED = (
    ("algebra", "cd_multiply", "algebra.cd_multiply", None),
    ("rings", "_euclid", "rings.euclid",
     lambda a, out: {"ring": a["ring"].name, "steps": len(out.quotients)}),
    ("rings", "nearest_shells", "rings.nearest_shells", None),
    ("rings", "enumerate_ball", "rings.enumerate_ball",
     lambda a, out: {"ring": a["ring"].name, "norm": int(a["max_norm"]),
                     "points": len(out)}),
    ("rings", "ball_elements", "rings.ball_elements", lambda a, out: {"n": len(out)}),
    ("rings", "hurwitz_left_content", "rings.left_content.hurwitz",
     lambda a, out: {"pairs": len(out), "coprime": int((out == 4).sum())}),
    ("rings", "octavian_left_content", "rings.left_content.octavian",
     lambda a, out: {"pairs": len(out), "coprime": int((out == 4).sum())}),
    ("hyperweyl", "build_w_ac", "hyperweyl.build_w_ac", None),
    ("hyperweyl", "build_w_tilde_cd", "hyperweyl.build_w_tilde_cd", None),
    ("hyperweyl", "apply_word", "hyperweyl.apply_word", None),
    ("hyperweyl", "row_act", "hyperweyl.row_act", None),
    ("hyperweyl", "coset_reps", "hyperweyl.coset_reps", None),
    ("rootsys", "generate_G2_2", "rootsys.generate_G2_2", None),
    ("rootsys", "e8_element", "rootsys.e8_element", None),
    ("rootsys", "e8_decompose", "rootsys.e8_decompose", None),
    ("rootsys", "w_e8_order", "rootsys.w_e8_order", None),
    ("uhp", "act_word", "uhp.act_word", None),
    ("autoforms", "eisenstein_truncated", "autoforms.eisenstein",
     lambda a, out: {"ring": a["p"].ring.name, "radius": a["p"].radius}),
    ("autoforms", "poincare_truncated", "autoforms.poincare",
     lambda a, out: {"ring": a["p"].ring.name, "radius": a["p"].radius}),
    ("autoforms", "fourier_coefficient", "autoforms.fourier",
     lambda a, out: {"ring": a["ring"].name, "radius": int(a["radius"])}),
)

# Every lru_cache of the package at the time the benchmark was defined.
# A cache that is gone reads 0 hits and 0 misses; a new one appears in
# the trace file only.
CACHES = (
    "algebra.structure_table", "algebra._pure_cd_table",
    "algebra.verify_octonion_table", "algebra._structure_float",
    "rings.units", "rings.octavian_unit_classes", "rings._e8_basis_inverse",
    "rings.octavian_glue_code", "rings.enumerate_ball",
    "rings.commutator_ideal_basis",
    "hyperweyl._least_unit",
    "rootsys.sandwich_map", "rootsys.right_mult_map", "rootsys.root_basis",
    "rootsys.all_roots", "rootsys._qset", "rootsys._outer_automorphism",
    "rootsys._brandt_closure", "rootsys.generate_G2_2", "rootsys.g2_key_set",
    "rootsys.imaginary_units", "rootsys._sandwich_stack",
    "uhp._rot_matrix_exact",
    "autoforms._ball_data", "autoforms._coset_class_words",
    "autoforms._sigma_counts",
)

CLI_COMMANDS = ("verify", "group", "euclid", "coset", "eisenstein", "fourier")

SETUP_TASK = -1


class Tracer:
    """Span recorder; `task` is the id stamped on new spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, task, counters]
        self.stack = []
        self.task = SETUP_TASK
        self.caches = {}

    def span(self, name):
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, name)

    def _wrap(self, fn, name, count, cache):
        tracer = self
        bind = _binder(fn) if count is not None else None

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.task, None]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            misses = cache.cache_info().misses if cache is not None else 0
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = {"raised": True}
                raise
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            counters = count(bind(args, kwargs), out) if count is not None else None
            if cache is not None:
                counters = dict(counters or {},
                                miss=cache.cache_info().misses > misses)
            rec[5] = counters
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Import the package and wrap every traced function everywhere it
        is bound.  Call once, before any traced work."""
        mods = [importlib.import_module(f"octavia.{m}") for m in MODULES]
        for mod in mods:
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                    self.caches[f"{mod.__name__.split('.')[-1]}.{attr}"] = obj
        for home, attr, name, count in TRACED:
            fn = getattr(importlib.import_module(f"octavia.{home}"), attr, None)
            if fn is None:
                continue
            cache = fn if hasattr(fn, "cache_info") else None
            wrapper = self._wrap(fn, name, count, cache)
            for mod in mods:
                for key, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, key, wrapper)

    def cache_stats(self):
        return {k: [c.cache_info().hits, c.cache_info().misses]
                for k, c in self.caches.items()}

    def dump(self, path, extra=None):
        data = {"spans": self.spans, "caches": self.cache_stats()}
        data.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t.stack[-1] if t.stack else -1,
                        t.task, None])
        t.stack.append(self.idx)
        t.spans[self.idx][1] = perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = perf_counter()
        t.stack.pop()
        return False


# -- per-layer metrics -------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class SpanSet:
    """Spans with self times and children, indexed by name."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.children = [[] for _ in spans]
        self.by_name = {}
        for i, (name, t0, t1, parent, _, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                self.child_time[parent] += t1 - t0
                self.children[parent].append(i)

    def idx(self, name, tasks=None, **match):
        out = []
        for i in self.by_name.get(name, ()):
            _, _, _, _, task, ctr = self.spans[i]
            if tasks is not None and not tasks(task):
                continue
            if any((ctr or {}).get(k) != v for k, v in match.items()):
                continue
            out.append(i)
        return out

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        return self.dur(i) - self.child_time[i]

    def ctr(self, i, key, default=0):
        return (self.spans[i][5] or {}).get(key, default)

    def ancestor(self, i, names):
        """Index of the nearest enclosing span named in names, or -1."""
        p = self.spans[i][3]
        while p >= 0 and self.spans[p][0] not in names:
            p = self.spans[p][3]
        return p


def layer_metrics(spans, n_tasks, in_window, cold, caches):
    """Per-layer metrics, in the units of UNITS; times are raw wall time.

    spans: span records; in_window(task) selects the spans of the fixed
    task prefix the warm metrics are taken over, and n_tasks is its size.
    cold(task) selects the spans of cold first calls (the set-up of an
    in-process workload, every call of a CLI workload).  caches maps a
    cache name to [hits, misses].  Metrics of a layer that the workload
    never calls read 0.
    """
    s = SpanSet(spans)
    w = in_window
    m = {}

    cd = s.idx("algebra.cd_multiply", w)
    m["algebra.cd_multiply.calls_per_task"] = _ratio(len(cd), n_tasks)
    m["algebra.self_s"] = sum(s.self_time(i) for i in cd)

    eu = s.idx("rings.euclid", w)
    for ring in ("hurwitz", "octavian"):
        m[f"rings.euclid.{ring}.p50_ms"] = 1e3 * _median(
            [s.dur(i) for i in s.idx("rings.euclid", w, ring=ring)])
    m["rings.euclid.steps_mean"] = _mean([s.ctr(i, "steps") for i in eu])
    builders = ("hyperweyl.build_w_ac", "hyperweyl.build_w_tilde_cd")
    # words that were built; a builder that raised built none
    words = [i for b in builders for i in s.idx(b, w) if not s.ctr(i, "raised", False)]
    in_word = [s.ancestor(i, builders) for i in eu]
    m["rings.euclid.runs_per_word"] = _ratio(
        sum(1 for p in in_word if p >= 0 and not s.ctr(p, "raised", False)), len(words))
    ns = s.idx("rings.nearest_shells", w)
    m["rings.nearest_shells.calls_per_euclid"] = _ratio(len(ns), len(eu))
    m["rings.nearest_shells.self_ms"] = 1e3 * _mean([s.self_time(i) for i in ns])

    balls = s.idx("rings.enumerate_ball")
    built = [i for i in balls if s.ctr(i, "miss", False)]
    m["rings.enumerate_ball.s"] = sum(s.dur(i) for i in built)
    m["rings.enumerate_ball.points"] = sum(s.ctr(i, "points") for i in built)
    ball_size = {(s.ctr(i, "ring"), s.ctr(i, "norm")): s.ctr(i, "points")
                 for i in balls}

    pairs = coprime = 0
    for ring in ("hurwitz", "octavian"):
        lc = s.idx(f"rings.left_content.{ring}", w)
        n = sum(s.ctr(i, "pairs") for i in lc)
        m[f"rings.left_content.{ring}.pairs_per_s"] = _ratio(
            n, sum(s.dur(i) for i in lc))
        pairs += n
        coprime += sum(s.ctr(i, "coprime") for i in lc)
    m["rings.left_content.coprime_ratio"] = _ratio(coprime, pairs)

    for b in builders:
        m[f"{b}.self_ms"] = 1e3 * _mean([s.self_time(i) for i in s.idx(b, w)])
    for f in ("apply_word", "row_act"):
        m[f"hyperweyl.{f}.ms"] = 1e3 * _mean(
            [s.dur(i) for i in s.idx(f"hyperweyl.{f}", w)])
    cr = s.idx("hyperweyl.coset_reps")
    m["hyperweyl.coset_reps.s"] = sum(s.dur(i) for i in cr)
    m["hyperweyl.coset_reps.pairs_tested"] = sum(
        s.ctr(j, "n") ** 2 for i in cr for j in s.children[i]
        if s.spans[j][0] == "rings.ball_elements")

    m["rootsys.generate_G2_2.s"] = sum(
        s.dur(i) for i in s.idx("rootsys.generate_G2_2"))
    for f in ("e8_decompose", "e8_element"):
        m[f"rootsys.{f}.p50_ms"] = 1e3 * _median(
            [s.dur(i) for i in s.idx(f"rootsys.{f}", w)])
    m["rootsys.w_e8_order.s"] = sum(
        s.dur(i) for i in s.idx("rootsys.w_e8_order"))

    m["uhp.act_word.us"] = 1e6 * _mean([s.dur(i) for i in s.idx("uhp.act_word", w)])

    def series_pairs(i):
        size = ball_size.get((s.ctr(i, "ring"), s.ctr(i, "radius")), 0)
        return size * size

    eis = s.idx("autoforms.eisenstein", w)
    m["autoforms.eisenstein.p50_ms"] = 1e3 * _median([s.dur(i) for i in eis])
    m["autoforms.eisenstein.pairs_per_s"] = _ratio(
        sum(series_pairs(i) for i in eis), sum(s.dur(i) for i in eis))
    po = s.idx("autoforms.poincare", w)
    m["autoforms.poincare.p50_ms"] = 1e3 * _median([s.dur(i) for i in po])
    mask = sum(s.dur(j) for i in po for j in s.children[i]
               if s.spans[j][0].startswith("rings.left_content."))
    m["autoforms.poincare.mask_share"] = _ratio(mask, sum(s.dur(i) for i in po))

    fo = s.idx("autoforms.fourier", w)

    def fourier_terms(i):
        # one margin-ball enumeration per grid point, each paired with
        # every c of the truncation ball (a cold call also enumerates that)
        key = (s.ctr(i, "ring"), s.ctr(i, "radius"))
        return ball_size.get(key, 0) * sum(
            s.ctr(j, "points") for j in s.children[i]
            if s.spans[j][0] == "rings.enumerate_ball" and s.ctr(j, "norm") != key[1])

    terms = [fourier_terms(i) for i in fo]
    m["autoforms.fourier.s"] = _mean([s.dur(i) for i in fo])
    m["autoforms.fourier.terms"] = _mean(terms)
    m["autoforms.fourier.terms_per_s"] = _ratio(sum(terms), sum(s.dur(i) for i in fo))
    # bytes of the complex128 term arrays the series kernels fill, from
    # the array sizes (computed, not measured)
    m["autoforms.series.bytes_computed"] = _ratio(
        16 * (sum(series_pairs(i) for i in eis + po) + sum(terms)), n_tasks)

    def first_ms(name, **match):
        idx = s.idx(name, cold, **match)
        return 1e3 * s.dur(idx[0]) if idx else 0.0

    m["rings.euclid.hurwitz.cold_ms"] = first_ms("rings.euclid", ring="hurwitz")
    m["rings.euclid.octavian.cold_ms"] = first_ms("rings.euclid", ring="octavian")
    m["rootsys.e8_decompose.cold_ms"] = first_ms("rootsys.e8_decompose")
    m["autoforms.eisenstein.cold_ms"] = first_ms("autoforms.eisenstein")
    m["autoforms.poincare.cold_ms"] = first_ms("autoforms.poincare")
    m["autoforms.fourier.cold_ms"] = first_ms("autoforms.fourier")

    for name in CACHES:
        hits, misses = caches.get(name, (0, 0))
        m[f"{name}.cache_hits"] = hits
        m[f"{name}.cache_misses"] = misses
    return m


def cli_metrics(calls):
    """CLI layer metrics from the traced CLI children of one round.

    calls: dicts with command, import_s, main_s, peak_rss_mb and, for
    verify, checks_failed.
    """
    m = {"cli.import_s": _median([c["import_s"] for c in calls])}
    for cmd in CLI_COMMANDS:
        mine = [c for c in calls if c["command"] == cmd]
        m[f"cli.{cmd}.s"] = _median([c["main_s"] for c in mine])
        m[f"cli.{cmd}.peak_rss_mb"] = max([c["peak_rss_mb"] for c in mine], default=0.0)
    m["cli.verify.checks_failed"] = sum(
        c.get("checks_failed", 0) for c in calls if c["command"] == "verify")
    return m


UNITS = {
    "algebra.cd_multiply.calls_per_task": ("count", "lower"),
    "algebra.self_s": ("s", "lower"),
    "rings.euclid.hurwitz.p50_ms": ("ms", "lower"),
    "rings.euclid.octavian.p50_ms": ("ms", "lower"),
    "rings.euclid.steps_mean": ("count", "lower"),
    "rings.euclid.runs_per_word": ("count", "lower"),
    "rings.nearest_shells.calls_per_euclid": ("count", "lower"),
    "rings.nearest_shells.self_ms": ("ms", "lower"),
    "rings.enumerate_ball.s": ("s", "lower"),
    "rings.enumerate_ball.points": ("count", "lower"),
    "rings.left_content.hurwitz.pairs_per_s": ("1/s", "higher"),
    "rings.left_content.octavian.pairs_per_s": ("1/s", "higher"),
    "rings.left_content.coprime_ratio": ("1", "higher"),
    "hyperweyl.build_w_ac.self_ms": ("ms", "lower"),
    "hyperweyl.build_w_tilde_cd.self_ms": ("ms", "lower"),
    "hyperweyl.apply_word.ms": ("ms", "lower"),
    "hyperweyl.row_act.ms": ("ms", "lower"),
    "hyperweyl.coset_reps.s": ("s", "lower"),
    "hyperweyl.coset_reps.pairs_tested": ("count", "lower"),
    "rootsys.generate_G2_2.s": ("s", "lower"),
    "rootsys.e8_decompose.p50_ms": ("ms", "lower"),
    "rootsys.e8_element.p50_ms": ("ms", "lower"),
    "rootsys.w_e8_order.s": ("s", "lower"),
    "uhp.act_word.us": ("us", "lower"),
    "autoforms.eisenstein.p50_ms": ("ms", "lower"),
    "autoforms.eisenstein.pairs_per_s": ("1/s", "higher"),
    "autoforms.poincare.p50_ms": ("ms", "lower"),
    "autoforms.poincare.mask_share": ("1", "lower"),
    "autoforms.fourier.s": ("s", "lower"),
    "autoforms.fourier.terms": ("count", "lower"),
    "autoforms.fourier.terms_per_s": ("1/s", "higher"),
    "autoforms.series.bytes_computed": ("B", "lower"),
    "rings.euclid.hurwitz.cold_ms": ("ms", "lower"),
    "rings.euclid.octavian.cold_ms": ("ms", "lower"),
    "rootsys.e8_decompose.cold_ms": ("ms", "lower"),
    "autoforms.eisenstein.cold_ms": ("ms", "lower"),
    "autoforms.poincare.cold_ms": ("ms", "lower"),
    "autoforms.fourier.cold_ms": ("ms", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.{c}.s": ("s", "lower") for c in CLI_COMMANDS},
    **{f"cli.{c}.peak_rss_mb": ("MB", "lower") for c in CLI_COMMANDS},
    "cli.verify.checks_failed": ("count", "lower"),
    "trace.tasks_per_s": ("1/s", "higher"),
    **{f"{c}.cache_hits": ("count", "higher") for c in CACHES},
    **{f"{c}.cache_misses": ("count", "lower") for c in CACHES},
}
