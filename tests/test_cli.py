import contextlib
import io
import json

import rqgeo.cli
import rqgeo.hecke
import rqgeo.series
from rqgeo.cli import EXIT_DOMAIN, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, run
from rqgeo.field import build_field, narrow_class_group
from rqgeo.geodesic import choose_r, rm_point_pair


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    return code, (json.loads(out) if out.strip() else None), err


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
                         "pm_halves", "psi_inverse", "coset_counts"]

    def test_two_hecke_passes(self, monkeypatch):
        # one pass with both algorithms for the report series (which the
        # pm_halves and psi_inverse checks read back) and one cycle pass
        # for the RM points of r + 2p
        calls = {"translate": 0, "enum": 0}
        translate = rqgeo.hecke.hecke_translate
        enum = rqgeo.series.intersect_winding_enum

        def counted_translate(Q, n):
            calls["translate"] += 1
            return translate(Q, n)

        def counted_enum(t):
            calls["enum"] += 1
            return enum(t)
        monkeypatch.setattr(rqgeo.hecke, "hecke_translate", counted_translate)
        monkeypatch.setattr(rqgeo.series, "intersect_winding_enum",
                            counted_enum)
        N = 6
        code, rep, _ = invoke_json("verify", "--D", "6", "--p", "5",
                                   "--N", str(N), "--no-cache")
        assert code == EXIT_OK and rep["passed"]
        F = build_field(6)
        G = narrow_class_group(F)
        rc = choose_r(F, 5)
        points = [Q for cls in range(G.h)
                  for Q in rm_point_pair(F, G, cls, 5, rc)]
        assert len(points) == 2 * G.h
        assert calls["translate"] == 2 * len(points) * N
        assert calls["enum"] == sum(len(translate(Q, n)) for Q in points
                                    for n in range(1, N + 1))

    def test_r_plus_2p_shifts_the_reported_r(self, monkeypatch):
        # with --r 12 the shifted series is the one at 12 + 2*5, not the
        # one at the default r = 8 shifted
        seen = []
        restrict = rqgeo.cli.diagonal_restriction

        def spy(*args, **kw):
            seen.append(kw["r"])
            return restrict(*args, **kw)
        monkeypatch.setattr(rqgeo.cli, "diagonal_restriction", spy)
        code, rep, _ = invoke_json("verify", "--D", "6", "--p", "5",
                                   "--N", "4", "--r", "12")
        assert code == EXIT_OK and rep["passed"] and rep["r"] == 12
        assert seen == [12, 22, 12]

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

    def test_classgroup(self):
        code, rep, _ = invoke_json("classgroup", "--D", "6")
        assert code == EXIT_OK
        assert rep["classgroup"]["h"] == 2
        assert rep["classgroup"]["table"] == [[0, 1], [1, 0]]

    def test_chars_d5_no_admissible(self):
        code, rep, _ = invoke_json("chars", "--D", "5")
        assert code == EXIT_OK
        assert rep["odd_count"] == 0
        assert rep["message"] == "no admissible character"

    def test_rmpoints(self):
        code, rep, _ = invoke_json("rmpoints", "--D", "6", "--p", "5")
        assert code == EXIT_OK
        assert rep["rmpoints"]["r"] == 8
        assert len(rep["rmpoints"]["classes"]) == 2

    def test_intersect(self):
        code, rep, _ = invoke_json("intersect", "--D", "6", "--p", "5",
                                   "--n", "2", "--algorithm", "both")
        assert code == EXIT_OK
        # a_2 = -2 * pairing = 24 = 8 * sigma1(2)
        assert rep["pairing"] == -12
        assert rep["right_cosets"] == 3


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

    def test_char_index_out_of_range(self):
        code, _, err = invoke("series", "--D", "6", "--p", "5",
                              "--char-index", "5")
        assert code == EXIT_DOMAIN

    def test_order_4_character(self):
        # exact values for characters of order > 2 are not implemented
        for cmd in ("series", "verify"):
            code, out, err = invoke(cmd, "--D", "34", "--p", "3", "--N", "4")
            assert code == EXIT_DOMAIN
            assert "characters of order 4 are not supported yet" in err
            assert "values are not exact" in err
            assert out == ""

    def test_algorithm_mismatch(self, monkeypatch):
        enum = rqgeo.series.intersect_winding_enum
        monkeypatch.setattr(rqgeo.series, "intersect_winding_enum",
                            lambda t: enum(t) + 1)
        for argv in (("series", "--N", "2"), ("intersect", "--n", "2")):
            code, out, err = invoke(*argv, "--D", "6", "--p", "5",
                                    "--algorithm", "both")
            assert code == EXIT_MISMATCH and "mismatch: translate" in err
            assert out == ""

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
        # negate the -r rows of the table the check reads: the two halves
        # then pair to opposite values.  The report series has its own
        # reference to the table, so only this check sees the skew.
        pairing_table = rqgeo.cli.pairing_table

        def skewed(*args):
            return tuple((plus, tuple(-v for v in minus))
                         for plus, minus in pairing_table(*args))
        monkeypatch.setattr(rqgeo.cli, "pairing_table", skewed)
        failed, _ = self._failed_checks()
        assert failed == ["pm_halves"]

    def test_dual_algorithm_can_fail(self, monkeypatch):
        # the report series falls back to the cycle algorithm, so the
        # coefficients and every other check are unchanged
        enum = rqgeo.series.intersect_winding_enum
        monkeypatch.setattr(rqgeo.series, "intersect_winding_enum",
                            lambda t: enum(t) + 1)
        failed, rep = self._failed_checks()
        assert failed == ["dual_algorithm"]
        assert rep["coeffs"] == {"1": 8, "2": 24, "3": 32, "4": 56}

    def test_r_plus_2p_can_fail(self, monkeypatch):
        # reverse the RM points of every r but the default one: the series
        # at r + 2p then comes out negated
        default_r = choose_r(build_field(6), 5).r

        def skewed(F, G, cls, p, rc):
            pair = rm_point_pair(F, G, cls, p, rc)
            if rc.r == default_r:
                return pair
            return tuple(Q.reversed() for Q in pair)
        monkeypatch.setattr(rqgeo.series, "rm_point_pair", skewed)
        failed, _ = self._failed_checks()
        assert failed == ["r_plus_2p"]

    def test_usage_errors_are_domain_errors(self):
        for argv in (("series", "--D", "x", "--p", "5"),
                     ("series", "--p", "5"),
                     ("rmpoints", "--D", "6"),
                     ("field", "--D", "6", "--p", "4", "--n", "7",
                      "--algorithm", "enum"),
                     ("verify", "--D", "6", "--p", "5", "--algorithm", "both"),
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
