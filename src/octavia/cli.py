"""Command-line front end.

Usage: octavia <subcommand> [options].  Subcommands: units, roots, group,
euclid, coset, eisenstein, fourier, green, geodesic, orbit-length,
verify, export.

Configuration: an optional key=value file (--config) provides defaults;
explicit flags win.  All JSON output is UTF-8 and newline-terminated;
elements are serialized with their doubled coordinates ("coords2") so
every value is an integer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

from . import algebra, autoforms, hyperweyl, rings, rootsys, uhp
from .algebra import AlgElem, from_text, norm_sq
from .hyperweyl import GroupWord, Inv, Rot, Trans
from .rings import HURWITZ, OCTAVIAN, Z, Ring, ring_by_name
from .uhp import UhpPoint

__all__ = ["main"]


# -- serialization -----------------------------------------------------------


def elem_json(a: AlgElem) -> dict:
    return {"dim": a.dim, "coords2": list(a.coords2)}


def word_json(w: GroupWord) -> list:
    out = []
    for tok in w.tokens:
        if isinstance(tok, Inv):
            out.append("inv")
        elif isinstance(tok, Trans):
            out.append({"trans": elem_json(tok.y)})
        elif isinstance(tok, Rot):
            out.append({"rot": elem_json(tok.eps)})
        else:
            raise TypeError(f"unknown token {tok!r}")
    return out


def _complex_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".octavia-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, payload, csv_rows=None, csv_header=None) -> None:
    """Write JSON (default) or CSV (--csv, when rows are available)."""
    if getattr(args, "csv", False) and csv_rows is not None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if csv_header:
            w.writerow(csv_header)
        w.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


# -- argument parsing --------------------------------------------------------


def _parse_complex(text: str) -> complex:
    """'5', '5+1.5i' or '5+1.5j' -> complex.  Only a trailing i is the
    imaginary unit, so inf and nan keep their spelling."""
    text = text.strip().replace(" ", "")
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split(",")], dtype=float)


def _parse_elem_or_vector(text: str):
    if ":" in text:
        return from_text(text)
    return _parse_vector(text)


def _parse_z(text: str) -> UhpPoint:
    """'<u1,...,un>;<v>' -> point on the upper half plane."""
    try:
        upart, vpart = text.split(";")
    except ValueError:
        raise ValueError("expected z as '<u-coords>;<v>'") from None
    return UhpPoint(_parse_vector(upart), float(vpart))


def _load_config(path: str) -> dict:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _merge_config(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill arguments that were left at None, and flags that were not
    passed, from the config file.

    One file may serve every subcommand, so a key for another
    subcommand's option is skipped; a key that names no option of any
    subcommand, or a flag key whose value is not true or false, is a
    ValueError.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for sp in subs.choices.values() for a in sp._actions]
    known = {a.dest for a in actions} - {"help"}
    flags = {a.dest for a in actions if isinstance(a, argparse._StoreTrueAction)}
    for key, val in _load_config(path).items():
        attr = key.replace("-", "_")
        if attr not in known:
            raise ValueError(f"config key {key!r} names no option of any subcommand")
        if attr in flags:
            if val.lower() not in ("true", "false"):
                raise ValueError(f"config key {key!r} takes true or false, not {val!r}")
            val = val.lower() == "true"
        if hasattr(args, attr) and getattr(args, attr) in (None, False):
            setattr(args, attr, val)
    return args


def _ring(args) -> Ring:
    return ring_by_name(args.ring or "hurwitz")


# -- subcommands -------------------------------------------------------------


def cmd_units(args) -> int:
    ring = _ring(args)
    us = rings.units(ring)
    payload = {"ring": ring.name, "count": len(us),
               "elements": [elem_json(u) for u in us]}
    if ring is OCTAVIAN:  # the CLI JSON pins the octavian-only partition
        real, brandt, imag = rings.octavian_unit_classes()
        payload["partition"] = {"real": len(real), "brandt": len(brandt),
                                "imaginary": len(imag)}
    _emit(args, payload,
          csv_rows=[list(u.coords2) for u in us],
          csv_header=[f"c2_{i}" for i in range(ring.dim)])
    return 0


def cmd_roots(args) -> int:
    name = (args.algebra or "d4").lower()
    roots = rootsys.all_roots(name)
    payload = {"algebra": name, "count": len(roots)}
    if args.cartan:
        payload["cartan"] = rootsys.cartan_matrix(name)
        payload["theta_marks"] = rootsys.theta_marks(name)
    if args.elements:
        payload["roots"] = [elem_json(r) for r in roots]
    _emit(args, payload,
          csv_rows=[list(r.coords2) for r in roots],
          csv_header=[f"c2_{i}" for i in range(roots[0].dim)])
    return 0


def cmd_group(args) -> int:
    which = (args.which or "g2").lower()
    orders = {"d4": rootsys.d4_even_count, "g2": lambda: len(rootsys.g2_key_set()),
              "e7": rootsys.generate_w_e7, "e8": rootsys.w_e8_order}
    if which not in orders:
        raise ValueError(f"unknown group {which!r}; expected d4, g2, e7 or e8")
    if args.elements and which != "g2":
        raise ValueError(f"--elements lists the elements of g2 only, not of {which}")
    t0 = time.perf_counter()
    order = orders[which]()
    elements = rootsys.generate_G2_2() if args.elements else ()
    payload = {"group": which, "order": order,
               "seconds": round(time.perf_counter() - t0, 3)}
    if args.elements:
        payload["elements"] = [[list(row) for row in m.rows2] for m in elements]
    _emit(args, payload)
    return 0


def cmd_euclid(args) -> int:
    ring = _ring(args)
    a = from_text(args.a)
    c = from_text(args.c)
    side = (args.side or "right").lower()
    if side == "right":
        tr = rings.right_euclid(ring, a, c)
    elif side == "left":
        tr = rings.left_euclid(ring, a, c)
    else:
        raise ValueError("--side must be left or right")
    payload = {
        "ring": ring.name,
        "side": side,
        "inputs": [elem_json(x) for x in tr.inputs],
        "quotients": [elem_json(q) for q in tr.quotients],
        "remainders": [elem_json(r) for r in tr.remainders],
        "remainder_norms": [str(norm_sq(r)) for r in tr.remainders],
        "last_divisor": elem_json(tr.last_divisor),
        "coprime": norm_sq(tr.last_divisor) == 1,
    }
    _emit(args, payload)
    return 0


def cmd_coset(args) -> int:
    ring = _ring(args)
    bound = int(args.bound or 1)
    dim = ring.dim
    out = []
    for row in hyperweyl.coset_reps(ring, bound).tolist():
        c2, d2 = row[:dim], row[dim:]
        entry = {"c": {"dim": dim, "coords2": c2}, "d": {"dim": dim, "coords2": d2}}
        if args.words:
            entry["word"] = word_json(hyperweyl.build_w_tilde_cd(
                ring, AlgElem.from_coords2(dim, c2), AlgElem.from_coords2(dim, d2)))
        out.append(entry)
    _emit(args, {"ring": ring.name, "bound": bound, "count": len(out),
                 "representatives": out})
    return 0


def _rotation_unit(ring):
    """The first unit other than +-1, or None (Z has none): u_eps with
    eps = +-1 fixes every point."""
    return next((e for e in rings.units(ring) if abs(e.coords[0]) != 1), None)


def cmd_eisenstein(args) -> int:
    """Series value with its residuals under three exact symmetries of the
    truncation set: inversion, the rotation by _rotation_unit(ring) and
    u -> -conj(u).  Z has no such rotation: `residual_rot` is null."""
    ring = _ring(args)
    z = _parse_z(args.z) if args.z else UhpPoint(np.zeros(ring.dim), 1.0)
    s = _parse_complex(args.s or "5")
    radius = int(args.radius or 9)
    p = autoforms.SeriesParams(ring, s, radius, z, exploratory=True)
    value = autoforms.eisenstein_truncated(p)
    eps = _rotation_unit(ring)
    uc = z.u_vector().copy()
    uc[0] = -uc[0]  # u-part of -conj(z)
    images = {"residual_inv": uhp.act_word(GroupWord(ring, (Inv(),)), z),
              "residual_rot": None if eps is None
              else uhp.act_word(GroupWord(ring, (Rot(eps),)), z),
              "residual_conj": UhpPoint(uc, z.v)}
    residuals = {key: None if zk is None else abs(value - autoforms.eisenstein_truncated(
        autoforms.SeriesParams(ring, s, radius, zk, exploratory=True)))
        for key, zk in images.items()}
    _emit(args, {"ring": ring.name, "s": _complex_json(s), "radius": radius,
                 "z": {"u": list(z.u), "v": z.v},
                 "value": _complex_json(value), **residuals})
    return 0


def cmd_fourier(args) -> int:
    ring = _ring(args)
    mu = _parse_elem_or_vector(args.mu) if args.mu else np.zeros(ring.dim)
    v = float(args.v or 1.0)
    s = _parse_complex(args.s or "5")
    radius = int(args.radius or 9)
    grid = int(args.grid or 4)
    d = autoforms.fourier_coefficient(mu, v, s, radius, ring, grid=grid)
    _emit(args, {"ring": ring.name, "mu": list(d.mu), "v": d.v,
                 "s": _complex_json(s), "radius": radius, "grid": grid,
                 "coefficient": _complex_json(d.coefficient),
                 "error_estimate": d.error_estimate})
    return 0


def cmd_green(args) -> int:
    lam = float(args.lam or 1.0)
    s = float(args.s or 4.0)
    n = int(args.n or 4)
    _emit(args, {"lam": lam, "s": s, "n": n,
                 "value": autoforms.green_function(lam, s, n)})
    return 0


def _as_float_vec(text: str) -> np.ndarray:
    x = _parse_elem_or_vector(text)
    if isinstance(x, AlgElem):
        return x.floats()
    return x


def cmd_geodesic(args) -> int:
    u1 = _as_float_vec(args.u1)
    u2 = _as_float_vec(args.u2)
    samples = int(args.samples or 100)
    ts = np.exp(np.linspace(math.log(1e-2), math.log(1e2), samples))
    rows = []
    for t in ts:
        z = uhp.geodesic_point(u1, u2, float(t))
        rows.append([float(t)] + [float(x) for x in z.u] + [z.v])
    header = ["t"] + [f"u{i}" for i in range(len(u1))] + ["v"]
    _emit(args, {"u1": list(u1), "u2": list(u2),
                 "points": [dict(zip(header, r)) for r in rows]},
          csv_rows=rows, csv_header=header)
    return 0


def cmd_orbit_length(args) -> int:
    entries = json.loads(args.matrix)
    M = tuple(tuple(np.asarray(x, dtype=float) for x in row) for row in entries)
    (a, _), (_, d) = M
    a0 = float(np.atleast_1d(a)[0])
    d0 = float(np.atleast_1d(d)[0])
    length = uhp.periodic_orbit_length(M)
    _emit(args, {"matrix": entries, "re_trace": a0 + d0, "length": length,
                 "dilation": math.exp(length)})
    return 0


_EXPORT_KINDS = ("units", "roots", "cosets", "series-grid", "fourier", "orbits")


def cmd_export(args) -> int:
    kind = args.kind
    if kind not in _EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}; expected one of {list(_EXPORT_KINDS)}")
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    # units, roots and cosets are the payloads of their own subcommands
    if kind == "units":
        ring = _ring(args)
        cmd_units(argparse.Namespace(
            ring=ring.name, out=os.path.join(outdir, f"units-{ring.name}.json")))
    elif kind == "roots":
        name = (args.algebra or "e8").lower()
        cmd_roots(argparse.Namespace(
            algebra=name, cartan=True, elements=True,
            out=os.path.join(outdir, f"roots-{name}.json")))
    elif kind == "cosets":
        ring = _ring(args)
        bound = int(args.bound or 1)
        cmd_coset(argparse.Namespace(
            ring=ring.name, bound=bound, words=True,
            out=os.path.join(outdir, f"cosets-{ring.name}-{bound}.json")))
    elif kind == "series-grid":
        ring = _ring(args)
        radius = int(args.radius or 9)
        s_values = [_parse_complex(t) for t in (args.s or "4;5").split(";")]
        v_values = [float(t) for t in (args.v or "1;2").split(";")]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["re_s", "im_s", "v", "re_E", "im_E", "radius"])
        for s in s_values:
            for v in v_values:
                z = UhpPoint(np.zeros(ring.dim), v)
                val = autoforms.eisenstein_truncated(
                    autoforms.SeriesParams(ring, s, radius, z, exploratory=True))
                w.writerow([s.real, s.imag, v, val.real, val.imag, radius])
        path = os.path.join(outdir, f"series-{ring.name}-{radius}.csv")
        _atomic_write(path, buf.getvalue())
    elif kind == "fourier":
        ring = _ring(args)
        mu = _parse_elem_or_vector(args.mu) if args.mu else np.zeros(ring.dim)
        radius = int(args.radius or 9)
        s = _parse_complex(args.s or "5")
        v_values = [float(t) for t in (args.v or "1;2").split(";")]
        data = []
        for v in v_values:
            d = autoforms.fourier_coefficient(mu, v, s, radius, ring,
                                              grid=int(args.grid or 4))
            data.append({"v": d.v, "coefficient": _complex_json(d.coefficient),
                         "error_estimate": d.error_estimate})
        path = os.path.join(outdir, f"fourier-{ring.name}.json")
        _atomic_write(path, json.dumps(
            {"ring": ring.name, "mu": [float(x) for x in np.atleast_1d(
                mu.coords if isinstance(mu, AlgElem) else mu)],
             "s": _complex_json(s), "radius": radius, "data": data},
            sort_keys=True) + "\n")
    else:  # orbits
        entries = json.loads(args.matrix or "[[[2],[1]],[[1],[1]]]")
        M = tuple(tuple(np.asarray(x, dtype=float) for x in row)
                  for row in entries)
        path = os.path.join(outdir, "orbit-lengths.json")
        _atomic_write(path, json.dumps(
            {"matrix": entries, "length": uhp.periodic_orbit_length(M)},
            sort_keys=True) + "\n")
    sys.stdout.write(json.dumps({"written": kind, "outdir": outdir}) + "\n")
    return 0


# -- verification checks -----------------------------------------------------


class Check(NamedTuple):
    """One named statement: run(rng) returns a plain value that passes when
    it equals expected, or, with tol, when |value - expected| <= tol."""

    name: str
    suite: str
    provenance: str
    run: Callable[[random.Random], object]
    expected: object
    tol: float | None = None


# the Hurwitz point of the Eisenstein and zeta checks
_Z4 = UhpPoint(np.array([0.2, 0.1, -0.3, 0.05]), 1.1)


def _moufang(rng) -> bool:
    return all(m.is_zero() for _ in range(20) for m in algebra.moufang_residuals(
        *(rings.random_element(OCTAVIAN, rng) for _ in range(3))))


def _sedenion_zero_divisor(rng) -> tuple:
    _, _, nz, np_, nq = algebra.find_sedenion_zero_divisors()
    return nz == 0, np_ > 0, nq > 0


def _eisenstein_inversion(rng) -> float:
    # rounding of a sum of size |E|: relative, not absolute
    e = autoforms.eisenstein_truncated(autoforms.SeriesParams(HURWITZ, 5.0, 4, _Z4))
    zi = uhp.act_word(GroupWord(HURWITZ, (Inv(),)), _Z4)
    ei = autoforms.eisenstein_truncated(autoforms.SeriesParams(HURWITZ, 5.0, 4, zi))
    return float(abs(e - ei)) / max(1.0, float(abs(e)))


def _bessel_half(rng) -> float:
    x = 5.0
    ref = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    return float(abs(autoforms.bessel_k(0.5, x) - ref) / ref)


def _green_pde(rng) -> float:
    zq = UhpPoint(np.array([0.4, 0.0, 0.2, -0.1]), 1.0)
    wq = UhpPoint(np.array([-0.3, 0.5, 0.0, 0.2]), 1.5)
    return float(abs(autoforms.green_pde_residual(zq, wq, 4.0)))


def _orbit_lemma(rng) -> bool:
    ok = True
    for ring in (Z, HURWITZ, OCTAVIAN):
        for _ in range(20):
            a = rings.random_element(ring, rng)
            c = rings.random_element(ring, rng)
            try:
                w = hyperweyl.build_w_ac(ring, a, c)
            except ValueError:
                continue
            got = hyperweyl.apply_word(w, hyperweyl.minus_delta(ring.dim))
            ok &= got == hyperweyl.orbit_target(a, c)
    return ok


def _euclid_replay(rng) -> bool:
    ok = True
    for ring in (HURWITZ, OCTAVIAN):
        for _ in range(50):
            a = rings.random_element(ring, rng)
            c = rings.random_element(ring, rng)
            if not c.is_zero():
                ok &= rings.right_euclid(ring, a, c).replay_ok()
    return ok


def _isometry(rng) -> float:
    worst = 0.0
    for ring in (HURWITZ, OCTAVIAN):
        for _ in range(20):
            z1, z2 = (UhpPoint(np.array([rng.uniform(-1, 1) for _ in range(ring.dim)]),
                               rng.uniform(0.5, 2.0)) for _ in range(2))
            w = hyperweyl.random_word(ring, rng, 6, 6)
            d0 = uhp.distance(z1, z2)
            d1 = uhp.distance(uhp.act_word(w, z1), uhp.act_word(w, z2))
            worst = max(worst, abs(d0 - d1))
    return float(worst)


def _hyperboloid(rng) -> float:
    xp, xm, x = uhp.embed(UhpPoint(np.array([0.3, -0.2, 0.1, 0.4]), 1.3))
    return float(abs(-xp * xm + float(x @ x) + 1.0))


# `verify --suite all` runs the table in this order; tests/test_cli.py runs
# each entry as its own test
CHECKS = (
    Check("octonion table consistent", "algebra", "algebra.verify_octonion_table",
          lambda rng: len(algebra.verify_octonion_table()), 7),
    Check("Moufang identities (octonions)", "algebra", "algebra.moufang_residuals",
          _moufang, True),
    Check("sedenion zero divisor", "algebra", "algebra.find_sedenion_zero_divisors",
          _sedenion_zero_divisor, (True, True, True)),
    Check("Eisenstein inversion residual", "autoforms",
          "autoforms.eisenstein_truncated", _eisenstein_inversion, 0.0, tol=1e-12),
    Check("zeta relation residual shrinks", "autoforms",
          "autoforms.zeta_relation_check",
          lambda rng: bool(autoforms.zeta_relation_check(HURWITZ, _Z4, 5.0, 9)
                           < autoforms.zeta_relation_check(HURWITZ, _Z4, 5.0, 4)),
          True),
    Check("K_{1/2} closed form", "autoforms", "autoforms.bessel_k",
          _bessel_half, 0.0, tol=1e-9),
    Check("Green PDE residual", "autoforms", "autoforms.green_pde_residual",
          _green_pde, 0.0, tol=1e-6),
    Check("G2(2) order", "groups", "rootsys.g2_key_set",
          lambda rng: len(rootsys.g2_key_set()), 12096),
    Check("W+(E8) order", "groups", "rootsys.w_e8_order",
          lambda rng: rootsys.w_e8_order(), 240 * 120 * 12096),
    Check("W+(E7) order", "groups", "rootsys.generate_w_e7",
          lambda rng: rootsys.generate_w_e7(), 1451520),
    Check("Z coset representatives (bound 4)", "hyperbolic", "hyperweyl.coset_reps",
          lambda rng: len(hyperweyl.coset_reps(Z, 4)), 8),
    Check("orbit of -delta matches [[|a|^2, a c*],[c a*, |c|^2]]", "hyperbolic",
          "hyperweyl.build_w_ac", _orbit_lemma, True),
    Check("commutator ideal index", "hyperbolic", "rings.commutator_ideal_index",
          lambda rng: rings.commutator_ideal_index(), 4),
    Check("Hurwitz unit count", "rings", "rings.units",
          lambda rng: len(rings.units(HURWITZ)), 24),
    Check("octavian unit count", "rings", "rings.units",
          lambda rng: len(rings.units(OCTAVIAN)), 240),
    Check("Euclid chains replay exactly", "rings", "rings.right_euclid",
          _euclid_replay, True),
    Check("Hurwitz shell counts", "rings", "rings.shell_counts",
          lambda rng: tuple(rings.shell_counts(HURWITZ, 5)), (24, 24, 96, 24, 144)),
    Check("|roots(d4)|", "roots", "rootsys.all_roots",
          lambda rng: len(rootsys.all_roots("d4")), 24),
    Check("|roots(e7)|", "roots", "rootsys.all_roots",
          lambda rng: len(rootsys.all_roots("e7")), 126),
    Check("|roots(e8)|", "roots", "rootsys.all_roots",
          lambda rng: len(rootsys.all_roots("e8")), 240),
    Check("W+(D4) order", "roots", "rootsys.d4_even_count",
          lambda rng: rootsys.d4_even_count(), 96),
    Check("theta over simple roots (d4)", "roots", "rootsys.theta_marks",
          lambda rng: rootsys.theta_marks("d4"), [1, 2, 1, 1]),
    Check("theta over simple roots (e8)", "roots", "rootsys.theta_marks",
          lambda rng: rootsys.theta_marks("e8"), [2, 3, 4, 5, 6, 4, 2, 3]),
    Check("distance isometry residual", "uhp", "uhp.act_word",
          _isometry, 0.0, tol=1e-9),
    Check("hyperboloid embedding residual", "uhp", "uhp.embed",
          _hyperboloid, 0.0, tol=1e-12),
)

SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS))


def run_check(check: Check, seed: int = 0) -> dict:
    """Run one check on its own random stream and return its report entry."""
    rng = random.Random(f"{seed}:{check.name}")
    t0 = time.perf_counter()
    value = check.run(rng)
    seconds = time.perf_counter() - t0
    if check.tol is None:
        passed = value == check.expected
        shown = repr(check.expected)
    else:
        passed = abs(value - check.expected) <= check.tol
        shown = f"{check.expected!r} +- {check.tol!r}"
    return {"name": check.name, "value": repr(value), "expected": shown,
            "passed": bool(passed), "provenance": check.provenance,
            "seconds": round(seconds, 3)}


def run_verify(suite: str, seed: int = 0) -> dict:
    """Run the checks of one suite (or all) and return the report."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of "
                         f"{list(SUITES) + ['all']}")
    report = [run_check(c, seed) for c in CHECKS if suite in ("all", c.suite)]
    return {"suite": suite, "seed": seed,
            "passed": all(c["passed"] for c in report), "checks": report}


def cmd_verify(args) -> int:
    suite = args.suite or "all"
    result = run_verify(suite, seed=int(args.seed or 0))
    _emit(args, result)
    for c in result["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        sys.stderr.write(f"{c['name']}: {status}\n")
    return 0 if result["passed"] else 1


# -- entry point -------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="key=value defaults file; flags win")
    sp.add_argument("--out", help="write output to this file atomically")
    sp.add_argument("--csv", action="store_true", help="CSV output where available")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="octavia",
        description="integer rings in normed division algebras, their "
                    "hyperbolic Weyl groups, and automorphic numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("units", help="ring units")
    sp.add_argument("--ring")
    _add_common(sp)
    sp.set_defaults(fn=cmd_units)

    sp = sub.add_parser("roots", help="root systems and Cartan matrices")
    sp.add_argument("--algebra", help="d4, e7 or e8")
    sp.add_argument("--cartan", action="store_true")
    sp.add_argument("--elements", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=cmd_roots)

    sp = sub.add_parser("group", help="finite group orders and elements")
    sp.add_argument("--which", help="d4, g2, e7 or e8")
    sp.add_argument("--elements", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=cmd_group)

    sp = sub.add_parser("euclid", help="sided Euclidean algorithm trace")
    sp.add_argument("--ring")
    sp.add_argument("--side", help="left or right")
    sp.add_argument("--a", required=True, help="element text, e.g. quat:2,0,1,1")
    sp.add_argument("--c", required=True)
    _add_common(sp)
    sp.set_defaults(fn=cmd_euclid)

    sp = sub.add_parser("coset", help="canonical coset representatives")
    sp.add_argument("--ring")
    sp.add_argument("--bound", help="squared-norm bound")
    sp.add_argument("--words", action="store_true",
                    help="include the coset words")
    _add_common(sp)
    sp.set_defaults(fn=cmd_coset)

    sp = sub.add_parser("eisenstein", help="truncated series value")
    sp.add_argument("--ring")
    sp.add_argument("--z", help="'<u-coords>;<v>'")
    sp.add_argument("--s")
    sp.add_argument("--radius")
    _add_common(sp)
    sp.set_defaults(fn=cmd_eisenstein)

    sp = sub.add_parser("fourier", help="Fourier coefficient of the series")
    sp.add_argument("--ring")
    sp.add_argument("--mu", help="dual-lattice vector (comma floats or element text)")
    sp.add_argument("--v")
    sp.add_argument("--s")
    sp.add_argument("--radius")
    sp.add_argument("--grid")
    _add_common(sp)
    sp.set_defaults(fn=cmd_fourier)

    sp = sub.add_parser("green", help="resolvent Green function")
    sp.add_argument("--lam")
    sp.add_argument("--s")
    sp.add_argument("--n")
    _add_common(sp)
    sp.set_defaults(fn=cmd_green)

    sp = sub.add_parser("geodesic", help="sample a boundary geodesic")
    sp.add_argument("--u1", required=True)
    sp.add_argument("--u2", required=True)
    sp.add_argument("--samples")
    _add_common(sp)
    sp.set_defaults(fn=cmd_geodesic)

    sp = sub.add_parser("orbit-length", help="periodic geodesic length")
    sp.add_argument("--matrix", required=True,
                    help="2x2 matrix as JSON, entries as coordinate lists")
    _add_common(sp)
    sp.set_defaults(fn=cmd_orbit_length)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", help="|".join(SUITES + ("all",)))
    sp.add_argument("--seed")
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("export", help="write JSON/CSV artifacts")
    sp.add_argument("--kind", required=True,
                    help="|".join(_EXPORT_KINDS))
    sp.add_argument("--outdir")
    sp.add_argument("--ring")
    sp.add_argument("--algebra")
    sp.add_argument("--bound")
    sp.add_argument("--radius")
    sp.add_argument("--grid")
    sp.add_argument("--s", help="semicolon-separated list for grids")
    sp.add_argument("--v", help="semicolon-separated list for grids")
    sp.add_argument("--mu")
    sp.add_argument("--matrix")
    _add_common(sp)
    sp.set_defaults(fn=cmd_export)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
