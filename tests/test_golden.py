"""The benchmark's golden series, recomputed.

benchmarks/golden/series.json holds the first odd character's series of
each (D, p) pair of the series workload, fields.json every odd
character's series of each pair of the fields pool, and verify.json the
report series of each pair of the verify workload, as exact rationals in
text.  The series and fields entries are recomputed by
diagonal_restriction with the cycle algorithm, the verify entries by
``rqgeo verify`` through rqgeo.cli.run, and compared as text; the files
are only read.
"""

import contextlib
import io
import json
import os
import re
from fractions import Fraction

import pytest

from rqgeo.cli import EXIT_OK, run
from rqgeo.field import build_field, narrow_class_group, odd_characters
from rqgeo.series import diagonal_restriction

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks", "golden")


def _entries(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        return json.load(fh)["entries"]


def _recompute(D, p, N, every_character):
    F = build_field(D)
    G = narrow_class_group(F)
    chars = odd_characters(G)
    if not every_character:
        chars = chars[:1]
    out = []
    for psi in chars:
        S = diagonal_restriction(F, G, psi, p, N=N, algorithm="cycle")
        out.append({"exponents": list(psi.exponents),
                    "constant": str(Fraction(S.constant)),
                    "coeffs": [str(Fraction(S.coeffs[n])) for n in range(1, N + 1)]})
    return out


@pytest.mark.parametrize("name, every_character", [("series", False), ("fields", True)])
def test_golden_series(name, every_character):
    entries = _entries(name)
    assert entries
    for e in entries:
        D, p = map(int, re.match(r"\w+:D(\d+)-p(\d+)-N\d+$", e["id"]).groups())
        N = len(e["chars"][0]["coeffs"])
        assert _recompute(D, p, N, every_character) == e["chars"], e["id"]


def _exact_text(v):
    if isinstance(v, dict):
        v = Fraction(v["num"], v["den"])
    assert isinstance(v, (int, Fraction)) and not isinstance(v, bool), v
    return str(Fraction(v))


def test_golden_verify():
    # verify builds the tables at r, -r and r + 2p, and checks the first
    # two with both algorithms: per translate, and Manin row against
    # double-coset row
    entries = _entries("verify")
    assert entries
    for e in entries:
        D, p, N = re.match(r"verify:D(\d+)-p(\d+)-N(\d+)$", e["id"]).groups()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["verify", "--D", D, "--p", p, "--N", N, "--no-cache"])
        assert code == EXIT_OK, e["id"]
        rep = json.loads(out.getvalue())
        assert rep["passed"], e["id"]
        assert all(c["passed"] for c in rep["checks"]), e["id"]
        got = [{"exponents": rep["psi_exponents"],
                "constant": _exact_text(rep["constant"]),
                "coeffs": [_exact_text(rep["coeffs"][str(n)])
                           for n in range(1, int(N) + 1)]}]
        assert got == e["chars"], e["id"]
