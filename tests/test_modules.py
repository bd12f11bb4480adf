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
from rqgeo.geodesic import choose_r, rm_point_pair
from rqgeo.hecke import hecke_translate
from rqgeo.oracles import QuadIrr, plus_root
from rqgeo.series import diagonal_restriction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "no-mpmath":
    sys.modules["mpmath"] = None        # every import of mpmath fails
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
                  "QuadIrr": any(hasattr(m, "QuadIrr") for m in rqgeo_modules)}))
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
    assert out == {"runs": [[0, ""]], "oracles": False, "mpmath": False,
                   "QuadIrr": False}
    # and runs with mpmath absent.  QuadIrr lives only in the oracles, so
    # no command below can build one; only verify-analytic needs mpmath,
    # and without it that is a domain error, not a traceback
    out = _probe("no-mpmath", ["series"] + PAIR,
                 ["series", "--algorithm", "both"] + PAIR,
                 ["field", "--D", "6"], ["verify"] + PAIR,
                 ["verify-analytic"])
    assert out["runs"][:4] == [[0, ""]] * 4
    code, err = out["runs"][4]
    assert code == 3 and "'analytic' extra" in err and "mpmath" in err
    assert (out["oracles"], out["mpmath"], out["QuadIrr"]) == (False,) * 3


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
    S = diagonal_restriction(F, G, psi, 5, N=8, algorithm="both")
    assert any(S.coeffs.values())
    for Q in rm_point_pair(F, G, 1, 5, choose_r(F, 5)):
        for n in range(1, 9):
            hecke_translate(Q, n)
    assert built == []
    plus_root(Q.form)           # the counter does count
    assert len(built) == 1
