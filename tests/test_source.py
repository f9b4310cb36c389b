"""Properties of the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import octavia

SRC = Path(octavia.__file__).parent


def test_no_assert_statements():
    # python -O strips assert, so no check the results depend on may be one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(tree):
    exported = set()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == []


def test_no_scipy_imports():
    # scipy is a test-only dependency: scipy.integrate alone takes longer
    # to import than the whole package
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_cli_import_loads_no_scipy():
    code = ("import sys, octavia.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"


def _cold_loads_numpy_ma(code: str) -> bool:
    """Whether a code snippet run in a fresh process imports numpy.ma."""
    code += "\nimport sys\nprint('numpy.ma' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    return out.stdout.strip().splitlines()[-1] == "True"


def _cli_call(argv) -> str:
    """A snippet making one CLI call with its output swallowed."""
    return ("import contextlib, io, octavia.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    octavia.cli.main({list(argv)!r})")


def test_coset_loads_no_numpy_ma():
    # np.unique(..., axis=0) imports numpy.ma on first use (9-15 ms of a
    # cold coset call); coset_reps deduplicates pairs on one int64 key
    # each (rings._pair_classes) and sorts its rows by np.lexsort
    assert not _cold_loads_numpy_ma(_cli_call(["coset", "--ring", "hurwitz", "--bound", "2"]))


def test_fourier_loads_no_numpy_ma():
    # the grid orbit table is built on the first fourier call; np.unique
    # on its rows would load numpy.ma (about 15 ms of a cold call)
    assert not _cold_loads_numpy_ma(_cli_call(["fourier", "--ring", "hurwitz", "--mu", "1,1,0,0",
                                               "--radius", "4", "--grid", "4"]))


def test_e8_normal_form_loads_no_numpy_ma():
    # the first W+(E8) normal form builds the class-first pairs of
    # rootsys._class_composites; plain np.unique on them loaded numpy.ma
    # (11-16 ms of the first round trip)
    assert not _cold_loads_numpy_ma(
        "from octavia.rings import OCTAVIAN, units\n"
        "from octavia.rootsys import e8_decompose, e8_element, generate_G2_2, imaginary_units\n"
        "imag = imaginary_units()\n"
        "m = e8_element(imag[3], imag[7], units(OCTAVIAN)[11], generate_G2_2()[100])\n"
        "assert e8_element(*e8_decompose(m)).key() == m.key()")


def _references(node):
    """Names and attribute names read anywhere under node."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
    return found


def test_no_unused_private_definitions():
    # a module-level _helper that nothing outside its own body reads is
    # left over from a deleted code path
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.name, node, _references(node)) for node in tree.body]
    found = [f"{name}:{node.lineno} {node.name}" for name, node, _ in statements
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and not any(node.name in refs for _, other, refs in statements
                         if other is not node)]
    assert found == []


def test_ring_identity_tests_stay_at_the_pinned_conventions():
    # behaviour reads the Ring record's fields; a comparison against a ring
    # constant is left only where a test or the CLI JSON pins a convention
    # of one ring: Z's sign rule (golden coset-z-* rows), Z's wider random
    # box (test_random_element_matches_per_ring_draw) and the octavian unit
    # partition of `units`
    names = {"Z", "HURWITZ", "OCTAVIAN"}

    def rings_named(node):
        nodes = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(n, ast.Name) and n.id in names
                   or isinstance(n, ast.Attribute) and n.attr in names for n in nodes)

    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            found += [f"{path.name} {func.name}" for node in ast.walk(func)
                      if isinstance(node, ast.Compare)
                      and any(map(rings_named, [node.left, *node.comparators]))]
    assert sorted(found) == ["cli.py cmd_units", "hyperweyl.py _canonical_rows",
                             "rings.py random_element"]


def test_rootsys_has_no_algebra_name_dispatch():
    # the finite root systems differ only in the table of their simple
    # roots; no branch of rootsys compares against an algebra's name
    names = {"d4", "e7", "e8"}

    def named(node):
        nodes = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and n.value.lower() in names for n in nodes)

    tree = ast.parse((SRC / "rootsys.py").read_text())
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(map(named, [node.left, *node.comparators]))]
    assert found == []


def test_all_names_are_bound():
    # a stale __all__ entry surfaces only at a user's `import *`
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "octavia" if path.stem == "__init__" else f"octavia.{path.stem}"
        module = importlib.import_module(name)
        found += [f"{path.name} {n}" for n in getattr(module, "__all__", ())
                  if not hasattr(module, n)]
    assert found == []


def test_public_definitions_are_exported():
    # a public def left out of __all__ is either an export nobody declared
    # or a leftover; cli exports only main by design
    found = []
    for stem in ("algebra", "rings", "rootsys", "hyperweyl", "uhp", "autoforms"):
        path = SRC / f"{stem}.py"
        exported = set(importlib.import_module(f"octavia.{stem}").__all__)
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} {node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in exported]
    assert found == []


def _cache_bound(decorator):
    """None when the decorator is not a cache, else whether its maxsize is
    a finite constant (lru_cache's default of 128 is)."""
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = ast.unparse(func).split(".")[-1]
    if name not in ("cache", "lru_cache"):
        return None
    if name == "cache":
        return False
    sizes = []
    if isinstance(decorator, ast.Call):
        sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return not sizes or (isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int)


def test_element_keyed_caches_are_bounded():
    # a cache keyed by user elements grows with every new input for the
    # life of the process unless its maxsize is a finite constant
    checked, found = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            params += [p for p in (node.args.vararg,) if p is not None]
            if not any(p.annotation is not None and "AlgElem" in ast.unparse(p.annotation)
                       for p in params):
                continue
            for dec in node.decorator_list:
                bounded = _cache_bound(dec)
                if bounded is not None:
                    checked.append(node.name)
                    if not bounded:
                        found.append(f"{path.name}:{node.lineno} {node.name}")
    assert {"_euclid", "sandwich_map", "right_mult_map", "_unit_matrix2"} <= set(checked)
    assert found == []


def test_code_generation_stays_in_one_helper():
    # generated text becomes code in algebra._compiled and nowhere else
    names = {"exec", "eval", "compile"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(func):
                    owner[node] = getattr(func, "name", "<lambda>")
        found += [(path.name, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.Attribute) and node.attr in names]
    assert found == [("algebra.py", "_compiled")] * 2


def test_exact_hot_path_builds_no_fractions():
    # the exact path compares integer norms: these functions build no
    # Fraction and call neither norm_sq nor real_part, which return one
    wanted = {("rings.py", "is_unit"), ("rings.py", "_euclid"),
              ("rings.py", "EuclTrace.replay_ok"), ("hyperweyl.py", "build_w_ac"),
              ("hyperweyl.py", "build_w_tilde_cd"), ("hyperweyl.py", "row_act"),
              ("rootsys.py", "e7_element"), ("rootsys.py", "e8_element"),
              ("rootsys.py", "e8_decompose")}
    banned = {"Fraction", "norm_sq", "real_part"}
    seen, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                funcs.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                funcs += [(f"{node.name}.{f.name}", f) for f in node.body
                          if isinstance(f, ast.FunctionDef)]
        for name, func in funcs:
            if (path.name, name) not in wanted:
                continue
            seen.add((path.name, name))
            for call in ast.walk(func):
                if isinstance(call, ast.Call):
                    callee = call.func
                    called = callee.id if isinstance(callee, ast.Name) else getattr(
                        callee, "attr", None)
                    if called in banned:
                        found.append(f"{path.name}:{call.lineno} {name} calls {called}")
    assert seen == wanted
    assert found == []
