"""The benchmark's golden series, recomputed.

benchmarks/golden/series.json holds the first odd character's series of
each (D, p) pair of the series workload, and fields.json every odd
character's series of each pair of the fields pool, as exact rationals
in text.  Every entry is recomputed by diagonal_restriction with the
cycle algorithm and compared as text; the files are only read.
"""

import json
import os
import re
from fractions import Fraction

import pytest

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
