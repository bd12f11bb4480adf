import importlib
import json
import os
import pkgutil
import subprocess
import sys

import rqgeo

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
