import contextlib
import csv
import io
import json
import sys

import pytest

import rqgeo.cli
import rqgeo.geodesic
import rqgeo.hecke
import rqgeo.series
from rqgeo.cli import EXIT_DOMAIN, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, run
from rqgeo.exact import squarefree_part
from rqgeo.field import (
    build_field,
    narrow_class_group,
    odd_characters,
    pell_plus,
)
from rqgeo.geodesic import choose_r, rm_points
from rqgeo.oracles import QuadIrr


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    return code, (json.loads(out) if out.strip() else None), err


def _refuse(name):
    """A stand-in that fails the run (exit 4) if it is ever called."""
    def refuse(*args):
        raise AssertionError("%s called" % name)
    return refuse


def _strip_ts(text):
    return "\n".join(l for l in text.splitlines() if "generated_at" not in l)


class TestSeries:
    def test_d12_p13(self):
        code, rep, _ = invoke_json("series", "--D", "3", "--p", "13",
                                   "--N", "10")
        assert code == EXIT_OK
        assert rep["d_F"] == 12 and rep["p"] == 13 and rep["kappa"] == 2
        assert rep["constant"] == {"num": 0, "den": 1}
        assert all(v == 0 for v in rep["coeffs"].values())
        assert not rep["inert"]

    def test_d24_p5_values(self):
        code, rep, _ = invoke_json("series", "--D", "6", "--p", "5",
                                   "--N", "6")
        assert code == EXIT_OK
        assert rep["constant"] == {"num": 4, "den": 3}
        assert rep["coeffs"] == {"1": 8, "2": 24, "3": 32, "4": 56,
                                 "5": 8, "6": 96}
        assert rep["convention_sign"] == -4

    def test_inert_structured_zero(self):
        code, rep, _ = invoke_json("series", "--D", "3", "--p", "5",
                                   "--N", "5")
        assert code == EXIT_OK
        assert rep["inert"] is True
        assert all(v == 0 for v in rep["coeffs"].values())

    def test_determinism(self):
        args = ("series", "--D", "7", "--p", "3", "--N", "8")
        _, a, _ = invoke(*args)
        _, b, _ = invoke(*args)
        assert _strip_ts(a) == _strip_ts(b)


class TestVerify:
    def test_both_algorithms_pass(self):
        code, rep, _ = invoke_json("verify", "--D", "6", "--p", "5",
                                   "--N", "8", "--no-cache")
        assert code == EXIT_OK
        assert rep["passed"]
        names = [c["name"] for c in rep["checks"]]
        assert names == ["dual_algorithm", "modularity", "r_plus_2p",
                         "pm_halves", "psi_inverse"]

    def test_three_hecke_passes(self, monkeypatch):
        # the tables at r, r + 2p and -(r + 2p) read Manin tables, and
        # check_pairing_table checks each of their points by one Farey
        # walk and Merel's set: verify builds no Hecke translate
        calls = {"translate": 0, "double_cosets": 0, "farey": []}
        farey = rqgeo.series.manin_table_enum

        def refused(name):
            def counted(*args):
                calls[name] += 1
                raise AssertionError("Hecke translate in verify")
            return counted

        def counted_farey(Q):
            calls["farey"].append(Q.form)
            return farey(Q)
        monkeypatch.setattr(rqgeo.hecke, "hecke_translate",
                            refused("translate"))
        monkeypatch.setattr(rqgeo.hecke, "double_cosets",
                            refused("double_cosets"))
        monkeypatch.setattr(rqgeo.series, "manin_table_enum", counted_farey)
        code, rep, _ = invoke_json("verify", "--D", "6", "--p", "5",
                                   "--N", "6", "--no-cache")
        assert code == EXIT_OK and rep["passed"]
        assert calls["translate"] == calls["double_cosets"] == 0
        F = build_field(6)
        G = narrow_class_group(F)
        r = choose_r(F, 5)
        points = [Q.form for s in (r, r + 10, -r - 10)
                  for Q in rm_points(F, G, 5, s)]
        assert len(points) == 3 * G.h
        assert calls["farey"] == points

    def test_three_tables(self):
        # the RM points and Manin tables at r, r + 2p and -(r + 2p), each
        # found once: the series, dual_algorithm and the two table checks
        # read each root's back from the cache
        rqgeo.series.manin_tables.cache_clear()
        code, rep, _ = invoke_json("verify", "--D", "6", "--p", "5",
                                   "--N", "4")
        assert code == EXIT_OK and rep["passed"]
        info = rqgeo.series.manin_tables.cache_info()
        assert info.misses == 3 and info.hits > 0

    def test_one_walk_per_root(self, monkeypatch):
        # only the series' root r has rows: one continued-fraction walk
        # and one pass over Merel's set, each pairing r's h tables; the
        # check and psi_inverse read the series' rows back
        calls, paired = [], []

        def counted(name):
            pairings = getattr(rqgeo.series, name)

            def count(tables, N, p):
                calls.append((name, len(tables), N, p))
                paired.append(list(tables))
                return pairings(tables, N, p)
            return count
        for name in ("manin_pairings", "merel_pairings"):
            monkeypatch.setattr(rqgeo.series, name, counted(name))
        code, rep, _ = invoke_json("verify", "--D", "210", "--p", "11",
                                   "--N", "6")
        assert code == EXIT_OK and rep["passed"]
        assert calls == [("manin_pairings", 8, 6, 11),
                         ("merel_pairings", 8, 6, 11)]
        assert paired[0] == paired[1]

    def test_r_plus_2p_shifts_the_reported_r(self, monkeypatch):
        # with --r 12 the shifted tables are the ones at 12 + 2*5, not the
        # ones at the default r = 8 shifted; a negative r shifts away from
        # zero, since -12 + 2*5 = -2 has r^2 < d_F
        seen = []
        tables = rqgeo.cli.manin_tables

        def spy(F, G, p, r):
            seen.append(r)
            return tables(F, G, p, r)
        monkeypatch.setattr(rqgeo.cli, "manin_tables", spy)
        for r, shifted in ((12, 22), (-12, -22)):
            del seen[:]
            code, rep, _ = invoke_json("verify", "--D", "6", "--p", "5",
                                       "--N", "4", "--r", str(r))
            assert code == EXIT_OK and rep["passed"] and rep["r"] == r
            assert seen == [r, shifted, -shifted]

    def test_one_search_per_table(self, monkeypatch):
        # every RM-point search is for one root, and each root is
        # searched once: series searches once, verify once per table
        searches = []
        candidates = rqgeo.geodesic._rm_candidates

        def counted(d, p, s):
            searches.append(s)
            return candidates(d, p, s)
        monkeypatch.setattr(rqgeo.geodesic, "_rm_candidates", counted)
        for cmd, most in (("series", 1), ("verify", 3)):
            del searches[:]
            code, _, _ = invoke(cmd, "--D", "6", "--p", "5", "--N", "4")
            assert code == EXIT_OK and 0 < len(searches) <= most, cmd
        assert len(set(searches)) == 3

    @pytest.mark.parametrize("D, p", [(6, 5), (210, 11)])
    def test_one_cycle_walk_per_point(self, monkeypatch, D, p):
        # the three roots of verify have 3h RM points, and the check and
        # the table comparisons read the Manin table that the series or
        # the search made: one cycle walk per point
        walks = []
        table = rqgeo.series.manin_table

        def counted(Q):
            walks.append(Q.form)
            return table(Q)
        monkeypatch.setattr(rqgeo.series, "manin_table", counted)
        code, rep, _ = invoke_json("verify", "--D", str(D), "--p", str(p),
                                   "--N", "4")
        assert code == EXIT_OK and rep["passed"]
        h = narrow_class_group(build_field(D)).h
        assert len(walks) == len(set(walks)) == 3 * h

    @pytest.mark.parametrize("D, p", [(6, 5), (7, 3), (3, 11), (3, 13)])
    def test_pm_halves_reads_other_points(self, monkeypatch, D, p):
        # the Manin table that pm_halves reads at the opposite root, at
        # every class sigma(c), is that of an RM point other than the
        # reversed point -f_c of the report's root, so pm_halves checks
        # their Gamma0(p)-equivalence and not only that reversal negates
        # a table
        seen = {}
        tables = rqgeo.cli.manin_tables

        def spy(F, G, p, r):
            seen[r] = [Q for Q, _ in tables(F, G, p, r)], G
            return tables(F, G, p, r)
        monkeypatch.setattr(rqgeo.cli, "manin_tables", spy)
        code, rep, _ = invoke_json("verify", "--D", str(D), "--p", str(p),
                                   "--N", "4")
        assert code == EXIT_OK and rep["passed"]
        opposite, = [s for s in seen if s < 0]
        (plus, G), (other, _) = seen[rep["r"]], seen[opposite]
        for c, Q in enumerate(plus):
            assert other[G.sigma(c)].form != Q.reversed().form, (D, p, c)

    def test_pm_halves_where_sigma_moves_every_class(self):
        # h+ = 8 at (210, 11) and sigma(c) != c for every class: reading
        # the opposite table at c instead of sigma(c) fails pm_halves
        G = narrow_class_group(build_field(210))
        assert G.h == 8 and all(G.sigma(c) != c for c in range(G.h))
        code, rep, _ = invoke_json("verify", "--D", "210", "--p", "11",
                                   "--N", "6")
        assert code == EXIT_OK and rep["passed"]

    def test_level_11_from_two_terms(self):
        # (constant, a_1) pin the 2-dim space, so N = 2 already checks a_2
        for D in ("3", "15"):
            for N in ("2", "3"):
                code, rep, _ = invoke_json("verify", "--D", D, "--p", "11",
                                           "--N", N)
                assert code == EXIT_OK and rep["passed"], (D, N)
                assert {"name": "modularity", "passed": True,
                        "detail": "mode=dim2"} in rep["checks"]
        code, out, err = invoke("verify", "--D", "3", "--p", "11", "--N", "1")
        assert code == EXIT_DOMAIN and "N >= 2" in err and out == ""

    def test_inert_passes(self):
        code, rep, _ = invoke_json("verify", "--D", "3", "--p", "5",
                                   "--N", "5", "--no-cache")
        assert code == EXIT_OK and rep["passed"]

    def test_analytic_suite(self):
        code, rep, _ = invoke_json("verify-analytic")
        assert code == EXIT_OK
        assert rep["passed"] and all(c["passed"] for c in rep["checks"])


class TestInfoCommands:
    def test_field(self):
        code, rep, _ = invoke_json("field", "--D", "3")
        assert code == EXIT_OK
        assert rep["d_F"] == 12 and rep["pell_plus"] == {"t": 4, "u": 1}

    def test_field_units_match_oracle(self):
        # each reported unit is the oracle QuadIrr of its integer pair
        # (x + y sqrt(d_F))/2, so sqrt(d_F) = 2 sqrt(D) when d_F = 4D
        for D in range(2, 400):
            if squarefree_part(D)[1] != 1:
                continue
            code, rep, _ = invoke_json("field", "--D", str(D))
            assert code == EXIT_OK
            F = build_field(D)
            for key, (x, y) in (("fundamental_unit", F.unit),
                                ("totally_positive_unit", pell_plus(F.d_F))):
                q = QuadIrr(x, y, 2, F.d_F)
                assert rep[key] == {"u": q.u, "v": q.v, "w": q.w, "D": q.D}, \
                    (D, key)

    def test_classgroup(self):
        code, rep, _ = invoke_json("classgroup", "--D", "6")
        assert code == EXIT_OK
        assert rep["classgroup"]["h"] == 2
        assert rep["classgroup"]["table"] == [[0, 1], [1, 0]]

    def test_classgroup_table_is_compose(self):
        # the report composes each unordered pair once; every cell, in
        # both orders, against G.compose.  226 and 16899 have classes of
        # order 8 and 5, whose products differ from their quotients
        for D in (226, 505, 16899):
            code, rep, _ = invoke_json("classgroup", "--D", str(D))
            G = narrow_class_group(build_field(D))
            assert code == EXIT_OK and rep["classgroup"]["h"] == G.h >= 8
            assert rep["classgroup"]["table"] == [
                [G.compose(i, j) for j in range(G.h)] for i in range(G.h)]

    def test_chars_d5_no_admissible(self):
        code, rep, _ = invoke_json("chars", "--D", "5")
        assert code == EXIT_OK
        assert rep["odd_count"] == 0
        assert rep["message"] == "no admissible character"

    def test_chars_exact_values(self):
        # +-1 where real, zeta_m^e where not: no float in the report
        code, rep, _ = invoke_json("chars", "--D", "34")
        assert code == EXIT_OK and rep["odd_count"] == 2
        odd = [ch["values"] for ch in rep["characters"] if ch["totally_odd"]]
        assert odd == [[1, "zeta_4^1", "zeta_4^3", -1],
                       [1, "zeta_4^3", "zeta_4^1", -1]]

    def test_rmpoints(self):
        code, rep, _ = invoke_json("rmpoints", "--D", "6", "--p", "5")
        assert code == EXIT_OK
        assert rep["rmpoints"]["r"] == 8
        assert len(rep["rmpoints"]["classes"]) == 2
        # N0 = 2 N(x) with x = (-r + sqrt(d_F))/2, for the default r and
        # explicit ones of either sign
        for D, p, r in ((6, 5, None), (6, 5, -8), (6, 5, 18), (3, 11, None),
                        (3, 13, None), (3, 13, 18), (7, 3, None), (7, 3, -10)):
            argv = ["rmpoints", "--D", str(D), "--p", str(p)]
            if r is not None:
                argv += ["--r", str(r)]
            code, rep, _ = invoke_json(*argv)
            assert code == EXIT_OK, argv
            got = rep["rmpoints"]["r"]
            assert r in (None, got)
            x = QuadIrr(-got, 1, 2, build_field(D).d_F)
            assert 2 * x.norm() == rep["rmpoints"]["N0"]

    def test_rmpoints_at_a_large_prime(self):
        # the default r is a Tonelli-Shanks root, not a search over r < 4p
        p = 2 ** 61 - 1
        code, rep, _ = invoke_json("rmpoints", "--D", "5", "--p", str(p))
        assert code == EXIT_OK and not rep["inert"]
        r = rep["rmpoints"]["r"]
        assert r == choose_r(build_field(5), p) and (r * r - 5) % (4 * p) == 0
        assert rep["rmpoints"]["classes"][0]["form_plus"][:2] == [p, -r]

    @pytest.mark.parametrize("D, p, n, triple", [
        # a_2 = -2 * pairing = 24 = 8 * sigma1(2)
        (6, 5, 2, (-12, 12, 3)),
        (6, 5, 12, (-112, 40, 28)),
        (6, 5, 30, (-48, 72, 60)),
        (3, 11, 22, (-4, 24, 33)),
        (7, 3, 36, (-84, 80, 63)),
    ], ids=["D6-p5-n2", "D6-p5-n12", "D6-p5-n30", "D3-p11-n22",
            "D7-p3-n36"])
    def test_intersect(self, D, p, n, triple):
        # composite n, p | n among them; every translate is checked cycle
        # against enum
        code, rep, _ = invoke_json("intersect", "--D", str(D), "--p", str(p),
                                   "--n", str(n))
        assert code == EXIT_OK
        assert "algorithm" not in rep
        assert (rep["pairing"], rep["translates"],
                rep["right_cosets"]) == triple


    def test_intersect_walks_each_orbit_once(self, monkeypatch):
        # one double_cosets walk per point of the twisted cycle serves
        # both the translate count and the pairing
        cosets = rqgeo.hecke.double_cosets
        calls = []

        def counted(Q, n):
            calls.append(Q.form)
            return cosets(Q, n)
        monkeypatch.setattr(rqgeo.hecke, "double_cosets", counted)
        code, rep, _ = invoke_json("intersect", "--D", "6", "--p", "5",
                                   "--n", "12")
        assert code == EXIT_OK and rep["translates"] == 40
        F = build_field(6)
        G = narrow_class_group(F)
        cycle = rqgeo.geodesic.twisted_cycle(F, G, odd_characters(G)[0], 5,
                                             choose_r(F, 5))
        assert calls == [Q.form for _, Q in cycle]


class TestFormats:
    def test_csv(self):
        code, out, _ = invoke("series", "--D", "6", "--p", "5", "--N", "3",
                              "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "key,value"
        assert any(l.startswith("coeffs.2,24") for l in out.splitlines())

    def test_text(self):
        code, out, _ = invoke("field", "--D", "3", "--format", "text")
        assert code == EXIT_OK
        assert "d_F" in out

    def test_text_lists_are_json(self):
        # as in csv: a list value is printed as JSON, strings in double
        # quotes
        code, out, _ = invoke("chars", "--D", "34", "--format", "text")
        assert code == EXIT_OK
        assert '"zeta_4^1"' in out and "'" not in out

    @staticmethod
    def _parse(fmt, out):
        # the report's keys by format; the digits are read with Python's
        # int-to-str limit lifted
        if fmt == "json":
            rep = json.loads(out)
            return rep["d_F"], rep["pell_plus"]["t"], rep["pell_plus"]["u"]
        if fmt == "csv":
            rows = dict(list(csv.reader(io.StringIO(out)))[1:])
        else:
            rows = dict(line.split(None, 1) for line in out.splitlines())
        return tuple(int(rows[k]) for k in ("d_F", "pell_plus.t",
                                            "pell_plus.u"))

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_large_integers_print_in_full(self, fmt):
        # the Pell unit of d_F = 4000000028 has 6,382 digits, beyond the
        # 4,300 that Python 3.10.7 and later convert to a string by
        # default; the report still prints every digit and leaves the
        # limit as it was
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        code, out, err = invoke("field", "--D", "1000000007", "--format",
                                fmt)
        assert code == EXIT_OK and err == ""
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            d, t, u = self._parse(fmt, out)
            assert len(str(t)) > 6000
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert d == 4000000028 and t * t - d * u * u == 4

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_a_report_that_fails_to_render_writes_nothing(self, monkeypatch,
                                                          fmt):
        # with the limit left in place the unit cannot be rendered: the
        # run is a domain error, and no part of the report is written
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int-to-str digit limit")
        monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: None)
        code, out, err = invoke("field", "--D", "1000000007", "--format",
                                fmt)
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: Exceeds the limit")


class TestNoDiskWrites:
    def test_info_commands_write_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("RQGEO_CACHE_DIR", raising=False)
        for argv in (("classgroup", "--D", "6"),
                     ("rmpoints", "--D", "6", "--p", "5")):
            code, _, _ = invoke(*argv)
            assert code == EXIT_OK
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_bad_D(self):
        code, _, err = invoke("series", "--D", "4", "--p", "5")
        assert code == EXIT_DOMAIN and "squarefree" in err

    def test_ramified_p(self):
        code, _, err = invoke("series", "--D", "3", "--p", "3")
        assert code == EXIT_DOMAIN and "ramifies" in err

    def test_bad_r_override(self):
        code, _, err = invoke("series", "--D", "3", "--p", "13", "--r", "7")
        assert code == EXIT_DOMAIN

    def test_ramified_p_with_r_override(self):
        # 6^2 = d_F = 24 mod 12, but p = 3 ramifies in Q(sqrt(6))
        for cmd in ("series", "verify"):
            code, out, err = invoke(cmd, "--D", "6", "--p", "3", "--r", "6",
                                    "--N", "4")
            assert code == EXIT_DOMAIN and "ramifies" in err
            assert out == ""

    def test_level_above_the_bound(self):
        # refused before any table is built: at 10^9 + 7 one Manin table
        # alone would hold 10^9 entries.  At an inert prime too (d_F = 24
        # is a nonresidue mod 10^7 + 19), and rmpoints takes every prime
        for p in (rqgeo.cli.MAX_LEVEL + 19, 10 ** 9 + 7):
            for argv in (("series", "--N", "4"), ("verify", "--N", "4"),
                         ("intersect", "--n", "2")):
                for D in ("6", "3"):
                    code, out, err = invoke(*argv, "--D", D, "--p", str(p))
                    assert code == EXIT_DOMAIN, (argv, D, p)
                    assert out == "" and "largest supported level" in err
            code, rep, _ = invoke_json("rmpoints", "--D", "6", "--p", str(p))
            assert code == EXIT_OK and rep["p"] == p

    def test_truncation_above_the_bound(self, monkeypatch):
        # --N of series and verify and --n of intersect above MAX_N are
        # refused before the field or any table is built, at the inert
        # (3, 5) too; at MAX_N itself the run goes on to build the field
        for name in ("build_field", "right_cosets"):
            monkeypatch.setattr(rqgeo.cli, name, _refuse(name))
        for name in ("manin_pairings", "merel_pairings"):
            monkeypatch.setattr(rqgeo.series, name, _refuse(name))
        bound = rqgeo.cli.MAX_N
        for cmd, opt in (("series", "--N"), ("verify", "--N"),
                         ("intersect", "--n")):
            for D in ("6", "3"):
                for size in (bound + 1, 100000):
                    code, out, err = invoke(cmd, "--D", D, "--p", "5",
                                            opt, str(size))
                    assert code == EXIT_DOMAIN and out == "", (cmd, D, size)
                    assert "MAX_N = %d" % bound in err
                code, out, err = invoke(cmd, "--D", D, "--p", "5",
                                        opt, str(bound))
                assert code == EXIT_INTERNAL and "build_field called" in err

    def test_nonpositive_n(self):
        # checked before the inert shortcut, so (3, 5) is refused too
        for D in ("6", "3"):
            for n in ("0", "-2"):
                code, out, err = invoke("intersect", "--D", D, "--p", "5",
                                        "--n", n)
                assert code == EXIT_DOMAIN and "n must be positive" in err
                assert out == "", (D, n)

    def test_composite_p_rejected(self):
        # rejected before the residue test, which would call 28 a square
        # mod 9 and report p = 25 as inert
        for p in ("9", "25"):
            for cmd in ("series", "verify"):
                code, out, err = invoke(cmd, "--D", "7", "--p", p,
                                        "--N", "4")
                assert code == EXIT_DOMAIN and "odd prime" in err
                assert out == ""

    def test_no_admissible_character(self):
        code, _, err = invoke("series", "--D", "5", "--p", "11")
        assert code == EXIT_DOMAIN and "no admissible character" in err

    def test_refused_before_the_class_group(self, monkeypatch):
        # a unit of norm -1 leaves no totally odd character and a ramified
        # p no RM point: both are refused from the field alone, at large
        # D too, where the class group takes seconds
        monkeypatch.setattr(rqgeo.cli, "narrow_class_group",
                            _refuse("narrow_class_group"))
        for argv, message in (
                (("series", "--D", "5", "--p", "11"), "no admissible"),
                (("series", "--D", "9999999997", "--p", "9999973"),
                 "no admissible character"),
                (("intersect", "--D", "5", "--p", "3"), "no admissible"),
                (("series", "--D", "99999998", "--p", "7"), "p ramifies"),
                (("verify", "--D", "3", "--p", "3"), "p ramifies in F"),
                (("rmpoints", "--D", "3", "--p", "3"), "p ramifies in F")):
            code, out, err = invoke(*argv)
            assert code == EXIT_DOMAIN and out == "", argv
            assert message in err, (argv, err)

    def test_char_index_out_of_range(self):
        code, _, err = invoke("series", "--D", "6", "--p", "5",
                              "--char-index", "5")
        assert code == EXIT_DOMAIN

    def test_character_orders(self, monkeypatch):
        # order 4 reads only its integer traces and passes; order 8
        # (D = 505) has no integer trace and is refused before any table
        # is built, at the inert p = 11 too
        for cmd in ("series", "verify"):
            code, rep, _ = invoke_json(cmd, "--D", "34", "--p", "3")
            assert code == EXIT_OK and rep["psi_exponents"] == [0, 1, 3, 2]
        for name in ("pairing_table", "manin_pairings"):
            monkeypatch.setattr(rqgeo.series, name, _refuse(name))
        for cmd in ("series", "verify"):
            for p in ("3", "11"):
                code, out, err = invoke(cmd, "--D", "505", "--p", p,
                                        "--N", "4")
                assert code == EXIT_DOMAIN and out == "", (cmd, p)
                assert "characters of order 8 are not supported" in err

    def test_intersect_needs_real_values(self):
        # intersect pairs the twisted cycle, which reads psi itself
        code, out, err = invoke("intersect", "--D", "34", "--p", "3",
                                "--n", "2")
        assert code == EXIT_DOMAIN and out == ""
        assert "character of order 4 is not real" in err

    @pytest.mark.parametrize("D, p, order", [(34, 7, 4), (505, 11, 8)])
    def test_intersect_refuses_at_an_inert_p(self, D, p, order):
        # psi is read before choose_r, so an inert p is no way round the
        # refusal
        code, out, err = invoke("intersect", "--D", str(D), "--p", str(p),
                                "--n", "2")
        assert code == EXIT_DOMAIN and out == ""
        assert "character of order %d is not real" % order in err

    def test_intersect_inert_order_2(self):
        # a real character at an inert p still gets the inert report
        code, rep, _ = invoke_json("intersect", "--D", "6", "--p", "7",
                                   "--n", "2")
        assert code == EXIT_OK and rep["inert"] is True

    def test_no_model_before_the_tables(self, monkeypatch):
        # at p = 17 there is no modularity model: verify says so before
        # it checks any pairing table
        monkeypatch.setattr(rqgeo.cli, "check_pairing_table",
                            _refuse("check_pairing_table"))
        code, out, err = invoke("verify", "--D", "35", "--p", "17",
                                "--N", "4")
        assert code == EXIT_DOMAIN and out == ""
        assert "no modularity model for p = 17" in err

    def test_algorithm_mismatch(self, monkeypatch):
        enum = rqgeo.hecke.intersect_winding_enum
        monkeypatch.setattr(rqgeo.hecke, "intersect_winding_enum",
                            lambda t: enum(t) + 1)
        code, out, err = invoke("intersect", "--n", "2", "--D", "6",
                                "--p", "5")
        assert code == EXIT_MISMATCH and "mismatch: translate" in err
        assert out == ""
        # the series reads the Manin rows and never the enum walk
        code, rep, _ = invoke_json("series", "--N", "2", "--D", "6",
                                   "--p", "5")
        assert code == EXIT_OK and rep["coeffs"] == {"1": 8, "2": 24}

    def test_internal_error(self, monkeypatch):
        for exc in (AssertionError("pairing is odd"), RuntimeError("stuck")):
            def broken(*args, **kwargs):
                raise exc
            monkeypatch.setattr(rqgeo.cli, "diagonal_restriction", broken)
            code, out, err = invoke("series", "--D", "6", "--p", "5",
                                    "--N", "2")
            assert code == EXIT_INTERNAL and "internal error" in err
            assert out == ""

    def _failed_checks(self):
        code, rep, _ = invoke_json("verify", "--D", "6", "--p", "5",
                                   "--N", "4", "--no-cache")
        assert code == EXIT_MISMATCH and not rep["passed"]
        return [c["name"] for c in rep["checks"] if not c["passed"]], rep

    def test_pm_halves_can_fail(self, monkeypatch):
        # negate the Manin tables at the opposite root -(r + 2p) where the
        # check reads them: they then equal the report's tables at
        # sigma(c) instead of their negations.  The report series and
        # dual_algorithm read the tables through rqgeo.series, so only
        # this check sees the skew.
        manin_tables = rqgeo.cli.manin_tables

        def skewed(F, G, p, r):
            tables = manin_tables(F, G, p, r)
            if r > 0:
                return tables
            return tuple((Q, {k: -v for k, v in t.items()})
                         for Q, t in tables)
        monkeypatch.setattr(rqgeo.cli, "manin_tables", skewed)
        failed, _ = self._failed_checks()
        assert failed == ["pm_halves"]

    def test_dual_algorithm_can_fail(self, monkeypatch):
        # one entry of every Farey table off by one: the report series
        # reads the Manin rows, so the coefficients and every other check
        # are unchanged
        farey = rqgeo.series.manin_table_enum

        def corrupted(Q):
            table = farey(Q)
            table[1] = table.get(1, 0) + 1
            return table
        monkeypatch.setattr(rqgeo.series, "manin_table_enum", corrupted)
        failed, rep = self._failed_checks()
        assert failed == ["dual_algorithm"]
        assert "at key 1:" in rep["checks"][0]["detail"]
        assert rep["coeffs"] == {"1": 8, "2": 24, "3": 32, "4": 56}

    def test_dual_algorithm_sees_a_wrong_walk(self, monkeypatch):
        # a walk off by 2 at n = 3 in every row (so every pairing stays
        # even): Merel's set disagrees with the rows at n = 3 first
        walk = rqgeo.series.manin_pairings

        def skewed(tables, N, p):
            return tuple(row[:2] + (row[2] + 2,) + row[3:]
                         for row in walk(tables, N, p))
        monkeypatch.setattr(rqgeo.series, "manin_pairings", skewed)
        code, rep, _ = invoke_json("verify", "--D", "6", "--p", "5",
                                   "--N", "4")
        assert code == EXIT_MISMATCH and not rep["passed"]
        (dual,) = [c for c in rep["checks"] if c["name"] == "dual_algorithm"]
        assert not dual["passed"] and "at n=3: manin=" in dual["detail"]

    def test_dual_algorithm_sees_a_dropped_coset(self, monkeypatch):
        # without one matrix of Merel's set for each n > 1 the Manin
        # tables still agree with the Farey walks; the Manin rows, from
        # the left cosets, do not agree with the Merel pairings
        merel = rqgeo.series.merel_pairings

        def dropped(tables, N, p):
            # one matrix fewer for every n > 1: the (n, 0; 0, 1) of key p,
            # among the closed-form rows (0 : d)
            return tuple(row[:1] + tuple(x - t.get(p, 0) for x in row[1:])
                         for row, t in zip(merel(tables, N, p), tables))
        monkeypatch.setattr(rqgeo.series, "merel_pairings", dropped)
        failed, rep = self._failed_checks()
        assert failed == ["dual_algorithm"]
        dual = rep["checks"][0]
        assert dual["name"] == "dual_algorithm"
        assert "RM point" in dual["detail"] and "at n=2" in dual["detail"]
        assert rep["coeffs"] == {"1": 8, "2": 24, "3": 32, "4": 56}

    def test_dual_algorithm_checks_the_minus_points(self, monkeypatch):
        # corrupt the Farey tables of the points of the negative root
        # only (b = r = 8 mod 10 at (6, 5)): only the check of the table
        # at -(r + 2p) reads them
        farey = rqgeo.series.manin_table_enum

        def corrupted(Q):
            table = farey(Q)
            if Q.form.b % 10 == 8:
                table[1] = table.get(1, 0) + 1
            return table
        monkeypatch.setattr(rqgeo.series, "manin_table_enum", corrupted)
        failed, rep = self._failed_checks()
        assert failed == ["dual_algorithm"]
        assert rep["checks"][0]["detail"].startswith(
            "RM point QuadForm(-5, 18, -15) at key 1:")

    def test_dual_algorithm_sees_rows_of_another_point(self, monkeypatch):
        # the h rows of the walk returned one table late, as a wrong
        # offset would slice them: each point's row is then another
        # point's, and its Merel pairing disagrees at n = 1
        walk = rqgeo.series.manin_pairings

        def late(tables, N, p):
            rows = walk(tables, N, p)
            return rows[1:] + rows[:1]
        monkeypatch.setattr(rqgeo.series, "manin_pairings", late)
        failed, rep = self._failed_checks()
        assert failed[0] == "dual_algorithm"
        assert "at n=1: manin=" in rep["checks"][0]["detail"]

    def test_r_plus_2p_can_fail(self, monkeypatch):
        # one entry of one Manin table at r + 2p off by one, where the
        # check reads it; the tables at -(r + 2p), which pm_halves reads,
        # stay as they are.  check_pairing_table reads the tables through
        # rqgeo.series, so dual_algorithm still sees the true ones
        shifted = choose_r(build_field(6), 5) + 2 * 5
        manin_tables = rqgeo.cli.manin_tables

        def skewed(F, G, p, r):
            tables = manin_tables(F, G, p, r)
            if r != shifted:
                return tables
            (Q, t), *rest = tables
            return ((Q, {**t, 1: t.get(1, 0) + 1}), *rest)
        monkeypatch.setattr(rqgeo.cli, "manin_tables", skewed)
        failed, _ = self._failed_checks()
        assert failed == ["r_plus_2p"]

    def test_usage_errors_are_domain_errors(self):
        for argv in (("series", "--D", "x", "--p", "5"),
                     ("series", "--p", "5"),
                     ("rmpoints", "--D", "6"),
                     ("field", "--D", "6", "--p", "4", "--n", "7",
                      "--algorithm", "enum"),
                     ("verify", "--D", "6", "--p", "5", "--algorithm", "both"),
                     ("series", "--D", "6", "--p", "5", "--algorithm", "enum"),
                     ("intersect", "--D", "6", "--p", "5",
                      "--algorithm", "both"),
                     ("series", "--D", "6", "--p", "5", "--n", "2"),
                     ("series", "--D", "6", "--p", "5", "--no-cache"),
                     ("classgroup", "--D", "6", "--cache-dir", "X"),
                     ()):
            code, out, err = invoke(*argv)
            assert code == EXIT_DOMAIN, argv
            assert err.startswith("usage: rqgeo") and "error:" in err
            assert out == ""

    def test_help_exits_zero(self):
        for argv in (("--help",), ("series", "--help")):
            code, out, err = invoke(*argv)
            assert code == EXIT_OK
            assert out.startswith("usage: rqgeo") and err == ""

    def test_repeated_runs_match(self):
        # parse keeps no state between runs: the same lines give the same
        # exit codes and the same output, --help 0 and bad usage 3
        results = []
        for _ in range(2):
            code, _, _ = invoke("series", "--D", "6", "--p", "5", "--N", "2")
            assert code == EXIT_OK
            code, out, err = invoke("series", "--help")
            assert code == EXIT_OK and out.startswith("usage: rqgeo series")
            results.append((out, err))
            code, out, err = invoke("series", "--D", "6")
            assert code == EXIT_DOMAIN and "--p" in err and out == ""
            results.append((out, err))
        assert results[:2] == results[2:]

    def test_d_above_the_bound(self, monkeypatch):
        # refused before any field is built, so before any Pell unit
        monkeypatch.setattr(rqgeo.cli, "build_field", _refuse("build_field"))
        for cmd, (_, names) in rqgeo.cli.COMMANDS.items():
            if "D" not in names:
                continue
            argv = [cmd, "--D", str(rqgeo.cli.MAX_D + 1)]
            argv += ["--p", "5"] if "p" in names else []
            code, out, err = invoke(*argv)
            assert code == EXIT_DOMAIN and out == "", argv
            assert "above MAX_D" in err, argv


def _argparse_reference():
    """The argparse parser the CLI read its command line with before
    parse, built from the same tables: the oracle of TestParse."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_DOMAIN, "%s: error: %s\n" % (self.prog, message))

    ap = Parser(prog="rqgeo")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, names) in rqgeo.cli.COMMANDS.items():
        sp = sub.add_parser(name)
        for opt in names + ("format",):
            kind, default, text = rqgeo.cli.OPTIONS[opt]
            if kind is bool:
                sp.add_argument("--" + opt, action="store_true",
                                help=argparse.SUPPRESS)
            elif default is ...:
                sp.add_argument("--" + opt, type=kind, required=True)
            elif kind is int:
                sp.add_argument("--" + opt, type=int, default=default)
            else:
                sp.add_argument("--" + opt, choices=kind, default=default)
    return ap


VERIFY = "verify --D 6 --p 5 --N 4"

# command lines: split on spaces, or a tuple where a token holds a space
CORPUS = [
    # from the tests, the README and the CI workflow
    "series --D 3 --p 13 --N 10", "series --D 6 --p 5 --N 6",
    "series --D 7 --p 3 --N 8", "series --D 6 --p 5 --N 3 --format csv",
    "series --D 3 --p 13 --r 7", "series --D 4 --p 5",
    "series --D 6 --p 5 --char-index 5", "series --D 505 --p 3 --N 4",
    "series --D 6 --p 1000000007 --N 4", "series --D 6 --p 5 --N 480",
    "series --D 6 --p 5 --N 10 --format json", "series --N 2 --D 6 --p 5",
    "verify --D 6 --p 5 --N 8 --no-cache", "verify --D 34 --p 3 --N 8",
    "verify --D 210 --p 11 --N 20", "verify --D 91 --p 9999973 --N 4",
    "verify --D 3 --p 11 --N 1", "verify --D 6 --p 5", VERIFY + " --r -8",
    "verify-analytic", "field --D 3", "field --D 1000000007 --format text",
    "classgroup --D 6", "chars --D 5", "chars --D 34 --format text",
    "rmpoints --D 6 --p 5", "rmpoints --D 5 --p 2305843009213693951",
    "intersect --D 6 --p 7 --n 2", "intersect --D 174 --p 9999991 --n 2",
    "intersect --n 2 --D 6 --p 5", "intersect --D 6 --p 5 --n 0",
    # --opt=value, unique prefixes, negative values, repeats
    "series --D=6 --p=5 --N=3", "series --D 6 --p=5 --format=text",
    "verify --D 6 --p 5 --char 1", "verify --D 6 --p 5 --form csv",
    "series --D 6 --p 5 --fo=text --ch=0", "verify --D 6 --p 5 --no",
    "verify --D 6 --p 5 --no-c", "series --D 6 --p 5 --r -7",
    "series --D 6 --p 5 --r=-7", "series --D 6 --p 5 --r -0",
    "intersect --D 6 --p 5 --n -1", "series --D -6 --p 5",
    "series --D 6 --D 7 --p 5", "series --D 6 --p 5 --N 3 --N 9",
    "verify --D 6 --p 5 --no-cache --no-cache",
    "series --D 6 --p 5 --format csv --format text",
    ("series", "--D", " 6 ", "--p", "5"),
    # usage errors
    "series --D 6", "series --p 5", "rmpoints --D 6", "series --D x --p 5",
    "series --D 6 --p 5.0", "series --D 6 --p 5 --r -7.5",
    "series --D 6 --p 5 --r", "series --D 6 --p 5 --r --N 3",
    "series --D --p 5",
    ("series", "--D", "", "--p", "5"), "series --D= --p 5",
    VERIFY + " --format xml", VERIFY + " --format=", VERIFY + " --fo JSON",
    VERIFY + " --algorithm both", "series --D 6 --p 5 --no-cache",
    "series --D 6 --p 5 --n 2", "classgroup --D 6 --cache-dir X",
    "field --D 6 --p 5", VERIFY + " --no-cache=1", VERIFY + " --n 4",
    VERIFY + " --bogus", VERIFY + " -x", VERIFY + " -5", VERIFY + " extra",
    VERIFY + " -", "series --d 6 --p 5", "series --D 6 --P 5",
    "", "bogus", "Series --D 6 --p 5", "ser --D 6 --p 5", "--D 6 series",
    "--bogus series --D 6 --p 5", "-5", ("verify", "--p", "5", "--D 6"),
    # --help and -h at both levels
    "--help", "-h", "--he", "--help series", "-h bogus", "series --help",
    "series -h", "verify --help", "verify-analytic -h", "series --h",
    "series --D 6 --p 5 --help", "series --D 6 -h --p x", "series --hel",
    "series --bogus --help", "series extra -h", "--bogus -h",
    "series --D x --help", "series --help=1", "series --D 6 --r --help",
]


def _argv(line):
    return line.split() if isinstance(line, str) else list(line)


def _line_id(line):
    """A test id without spaces: the tokens joined by +."""
    return "+".join(t.replace(" ", "_") for t in _argv(line)) or "empty"


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParse:
    @pytest.mark.parametrize("line", CORPUS, ids=_line_id)
    def test_agrees_with_argparse(self, line):
        argv = _argv(line)
        ours = _outcome(rqgeo.cli.parse, argv)
        theirs = _outcome(_argparse_reference().parse_args, argv)
        assert ours[0] == theirs[0]
        for result, out, err in (ours, theirs):
            if result == EXIT_DOMAIN:
                assert out == "" and err.startswith("usage: rqgeo")
                assert "error:" in err
            elif result == EXIT_OK:
                assert out.startswith("usage: rqgeo") and err == ""
            else:
                assert out == err == ""

    def test_help_is_built_from_the_tables(self):
        code, out, _ = invoke("--help")
        assert code == EXIT_OK
        for cmd in rqgeo.cli.COMMANDS:
            assert "\n  rqgeo %s " % cmd in out
        for cmd, (_, names) in rqgeo.cli.COMMANDS.items():
            code, out, _ = invoke(cmd, "--help")
            assert code == EXIT_OK and out.startswith("usage: rqgeo " + cmd)
            for name in names + ("format", "help"):
                text = rqgeo.cli.OPTIONS[name][2]
                assert (("--" + name) in out) == (text is not None), name
                assert text is None or text in out
        assert "--no-cache" not in invoke("verify", "--help")[1]
