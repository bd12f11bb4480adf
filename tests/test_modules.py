import ast
import glob
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import rqgeo
from rqgeo.field import build_field, narrow_class_group, odd_characters
from rqgeo.geodesic import choose_r, rm_points
from rqgeo.hecke import hecke_translate
from rqgeo.oracles import QuadIrr, plus_root
from rqgeo.series import check_pairing_table, diagonal_restriction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "no-mpmath":
    sys.modules["mpmath"] = None        # every import of mpmath fails
before = set(sys.modules)
import rqgeo, rqgeo.cli
runs = []
for argv in json.loads(sys.argv[2]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        runs.append([rqgeo.cli.run(argv), err.getvalue()])
rqgeo_modules = [m for name, m in sys.modules.items()
                 if name.split(".")[0] == "rqgeo"]
print(json.dumps({"runs": runs, "oracles": "rqgeo.oracles" in sys.modules,
                  "mpmath": sys.modules.get("mpmath") is not None,
                  "QuadIrr": any(hasattr(m, "QuadIrr") for m in rqgeo_modules),
                  "loaded": sorted(set(sys.modules) - before)}))
"""

PAIR = ["--D", "6", "--p", "5", "--N", "4"]


def _probe(mode, *argvs):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, mode,
                           json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_series_run_loads_no_oracle():
    # the production path imports neither the oracles nor mpmath
    out = _probe("mpmath", ["series"] + PAIR)
    out.pop("loaded")
    assert out == {"runs": [[0, ""]], "oracles": False, "mpmath": False,
                   "QuadIrr": False}
    # and runs with mpmath absent.  QuadIrr lives only in the oracles, so
    # no command below can build one; only verify-analytic needs mpmath,
    # and without it that is a domain error, not a traceback
    out = _probe("no-mpmath", ["series"] + PAIR,
                 ["intersect", "--D", "6", "--p", "5", "--n", "2"],
                 ["field", "--D", "6"], ["verify"] + PAIR,
                 ["verify-analytic"])
    assert out["runs"][:4] == [[0, ""]] * 4
    code, err = out["runs"][4]
    assert code == 3 and "'analytic' extra" in err and "mpmath" in err
    assert (out["oracles"], out["mpmath"], out["QuadIrr"]) == (False,) * 3


def test_cli_loads_no_parser_or_csv_module():
    # the command line is read without argparse (and so without gettext
    # and locale), and csv is imported by a --format csv run alone
    stdlib = {"argparse", "gettext", "locale", "csv"}
    out = _probe("mpmath", ["verify"] + PAIR, ["series"] + PAIR)
    assert out["runs"] == [[0, ""]] * 2
    assert stdlib.isdisjoint(out["loaded"])
    out = _probe("mpmath", ["series"] + PAIR + ["--format", "csv"])
    assert out["runs"] == [[0, ""]] and "csv" in out["loaded"]


def test_every_export_resolves():
    modules = [rqgeo] + [importlib.import_module("rqgeo." + m.name)
                         for m in pkgutil.iter_modules(rqgeo.__path__)]
    assert "rqgeo.oracles" in {m.__name__ for m in modules}
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), "%s.%s" % (mod.__name__, name)


def _unused_imports(source):
    """Names bound by a module-level import that the module neither
    reads nor lists in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_no_unused_imports():
    # a name imported at module level is read there or exported
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "rqgeo", "*.py"))):
        with open(path) as fh:
            unused = _unused_imports(fh.read())
        assert unused == [], (os.path.basename(path), unused)
    # the guard does fire
    assert _unused_imports("import math\nfrom .x import _a, b\n"
                           "__all__ = ['b']\n") == [(1, "math"), (2, "_a")]


def _private_imports(source):
    """(line, module, name) of each underscore name that source imports
    from an rqgeo module, relative or absolute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "rqgeo"):
            module = "." * node.level + (node.module or "")
            out += [(node.lineno, module, alias.name) for alias in node.names
                    if alias.name.startswith("_")]
    return sorted(out)


def test_no_private_imports():
    # a package module uses another's helpers by their public names; the
    # oracles are the tests' reference and may reach into the package
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "rqgeo", "*.py"))):
        if os.path.basename(path) == "oracles.py":
            continue
        with open(path) as fh:
            private = _private_imports(fh.read())
        assert private == [], (os.path.basename(path), private)
    # the guard does fire, on relative and absolute imports, also inside
    # a function, and not on other packages
    assert _private_imports(
        "from __future__ import annotations\n"
        "from .field import QuadForm, _divisors\n"
        "from math import _x\n"
        "def f():\n"
        "    from rqgeo.hecke import _xgcd\n") == [
        (2, ".field", "_divisors"), (5, "rqgeo.hecke", "_xgcd")]


def _unreferenced_helpers(sources):
    """(module, name) of each module-level function named _x that no
    module of sources reads, by name, as an attribute or in an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(entry for entry in defined if entry[1] not in read)


def test_no_unreferenced_helpers():
    # a private helper of the package is read somewhere in src/; the
    # oracles may keep helpers of their own for the tests
    sources = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "rqgeo", "*.py"))):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    assert [entry for entry in _unreferenced_helpers(sources)
            if entry[0] != "oracles.py"] == []
    # the guard does fire, and a read in another module counts
    assert _unreferenced_helpers({"a.py": "def _a(): pass\n"
                                  "def _b(): return _a\n"}) == [("a.py", "_b")]
    assert _unreferenced_helpers({"a.py": "def _a(): pass\n",
                                  "b.py": "from .a import _a\n"}) == []


def _unread_parameters(source):
    """(line, function, parameter) of each parameter that its function,
    nested functions included, never reads; self, cls, names _x and
    dunder methods are skipped."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name.startswith("__"):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, p.arg) for p in params
                if p.arg not in ("self", "cls") and not p.arg.startswith("_")
                and p.arg not in read]
    return sorted(out)


def test_no_unread_parameters():
    # a package function reads every parameter it takes; the oracles are
    # the tests' reference and are not scanned
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "rqgeo", "*.py"))):
        if os.path.basename(path) == "oracles.py":
            continue
        with open(path) as fh:
            unread = _unread_parameters(fh.read())
        assert unread == [], (os.path.basename(path), unread)
    # the guard does fire, also on keyword-only and star parameters and in
    # a nested function, and a read in a nested function counts
    assert _unread_parameters(
        "def f(F, G, *, k=1, _x=0, **kw):\n"
        "    def g(y):\n"
        "        return G + k\n"
        "    return g\n"
        "class C:\n"
        "    def __init__(self, z): pass\n"
        "    def m(self, cls, w, *args): return w\n") == [
        (1, "f", "F"), (1, "f", "kw"), (2, "g", "y"), (7, "m", "args")]


def test_coefficient_path_builds_no_quadirr(monkeypatch):
    # past the field's reported units, a series and its Hecke translates
    # are integer arithmetic on forms: no root is ever built, even with
    # the oracles loaded in the same process
    F = build_field(6)
    G = narrow_class_group(F)
    psi = odd_characters(G)[0]
    built = []
    init = QuadIrr.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(QuadIrr, "__init__", counted)
    S = diagonal_restriction(F, G, psi, 5, N=8)
    assert any(S.coeffs.values())
    r = choose_r(F, 5)
    check_pairing_table(F, G, 5, (r,), 8)
    for Q in (rm_points(F, G, 5, s)[1] for s in (r, -r)):
        for n in range(1, 9):
            hecke_translate(Q, n)
    assert built == []
    plus_root(Q.form)           # the counter does count
    assert len(built) == 1


HOOKS = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import rqgeo, rqgeo.cli
from tracing import TARGETS, Recorder, layer_metrics
missing = [m + "." + a for m, a, _ in TARGETS
           if not hasattr(importlib.import_module(m), a)]
if missing:
    print(json.dumps({"missing": missing}))
    sys.exit()
recorder = Recorder()
recorder.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = max(rqgeo.cli.run(argv) for argv in (
        ["verify", "--D", "6", "--p", "5", "--N", "4", "--no-cache"],
        ["intersect", "--D", "6", "--p", "5", "--n", "2"]))
F = rqgeo.field.build_field(15)
G = rqgeo.field.narrow_class_group(F)
rqgeo.series.diagonal_restriction(F, G, rqgeo.field.odd_characters(G)[0], 7,
                                  N=4)
print(json.dumps({"missing": [], "code": code,
                  "counters": recorder.counters(),
                  "layers": layer_metrics(recorder.spans)}))
"""


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])


def _rqgeo_names(source):
    """The dotted rqgeo names a benchmark file reads: its imports from
    rqgeo, and attribute chains on rqgeo or on a name assigned one."""
    tree = ast.parse(source)
    alias, names = {"rqgeo": "rqgeo"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for t, v in pairs:
                d = _dotted(v)
                if isinstance(t, ast.Name) and d and d.split(".")[0] == "rqgeo":
                    alias[t.id] = d
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "rqgeo"):
            names.update(node.module + "." + a.name for a in node.names)
    for node in ast.walk(tree):
        d = _dotted(node) if isinstance(node, ast.Attribute) else None
        if d and d.split(".")[0] in alias:
            head, _, rest = d.partition(".")
            names.add(alias[head] + "." + rest)
    return names


def _resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_benchmark_hooks_resolve():
    # the benchmark binds package functions by name (tracing.TARGETS) and
    # reads lru_cache statistics; a traced verify run, a traced intersect
    # run and a library series must reach every layer it reports.  verify
    # builds no Hecke translate, so the translate layer and both
    # intersection algorithms on translates come from intersect
    bench = os.path.join(ROOT, "benchmarks")
    names = set()
    for path in sorted(glob.glob(os.path.join(bench, "*.py"))):
        with open(path) as fh:
            names |= _rqgeo_names(fh.read())
    assert {"rqgeo.geodesic.choose_r", "rqgeo.cli.run",
            "rqgeo.series.diagonal_restriction"} <= names
    assert [n for n in sorted(names) if not _resolves(n)] == []
    assert not _resolves("rqgeo.geodesic.rm_point_pair")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", HOOKS, bench], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    assert out["code"] == 0
    counters, layers = out["counters"], out["layers"]
    for name in ("geodesic.intersect_cycle.calls",
                 "geodesic.intersect_enum.calls", "hecke.translates",
                 "field.pell_plus.hits"):
        assert counters[name] > 0, name
    for name in ("series.pair_s", "lvalue.constant_term_s"):
        assert layers[name] > 0, name
