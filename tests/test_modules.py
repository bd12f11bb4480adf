import ast
import glob
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import rqgeo
from rqgeo.exact import QuadIrr
from rqgeo.field import build_field, narrow_class_group, odd_characters
from rqgeo.geodesic import choose_r, rm_point_pair
from rqgeo.hecke import hecke_translate
from rqgeo.series import diagonal_restriction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import contextlib, io, json, sys
import rqgeo, rqgeo.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rqgeo.cli.run(["series", "--D", "6", "--p", "5", "--N", "4"])
print(json.dumps({"code": code, "oracles": "rqgeo.oracles" in sys.modules,
                  "mpmath": "mpmath" in sys.modules}))
"""


def test_series_run_loads_no_oracle():
    # the production path imports neither the oracles nor mpmath
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"code": 0, "oracles": False,
                                       "mpmath": False}


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


def test_coefficient_path_builds_no_quadirr(monkeypatch):
    # past the field's reported units, a series and its Hecke translates
    # are integer arithmetic on forms: no root is ever built
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
    Q.form.plus_root()          # the counter does count
    assert len(built) == 1
