import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqgeo.field import (
    all_characters,
    build_field,
    narrow_class_group,
    odd_characters,
)
from rqgeo.exact import squarefree_part
from rqgeo.geodesic import (
    choose_r,
    rm_points,
    twisted_cycle,
)
import rqgeo.cli
import rqgeo.geodesic
import rqgeo.hecke
import rqgeo.series
from rqgeo.series import (
    AlgorithmMismatch,
    QSeries,
    _coefficient,
    check_pairing_table,
    diagonal_restriction,
    eta_product_coeffs,
    manin_tables,
    modularity_check,
    pairing_table,
)
from rqgeo.hecke import pair_with_twisted_cycle, sigma1
from rqgeo.oracles import merel_counts, pairing_row


def _setup(D):
    F = build_field(D)
    G = narrow_class_group(F)
    return F, G, odd_characters(G)[0]


class TestSigma1P:
    def test_examples(self):
        assert sigma1(1, 5) == 1
        assert sigma1(6, 5) == 12
        assert sigma1(5, 5) == 1
        assert sigma1(22, 11) == 3


class TestEtaProduct:
    def test_known_expansion(self):
        # weight-2 newform for Gamma0(11)
        want = [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2, 4, 4, -1]
        got = eta_product_coeffs(15)
        assert [got[n] for n in range(1, 16)] == want

    def test_hecke_multiplicativity(self):
        c = eta_product_coeffs(30)
        assert c[6] == c[2] * c[3]
        assert c[10] == c[2] * c[5]
        assert c[15] == c[3] * c[5]
        assert c[4] == c[2] ** 2 - 2 * c[1]


class TestDiagonalRestriction:
    def test_d24_p5_eight_sigma(self):
        F, G, psi = _setup(6)
        S = diagonal_restriction(F, G, psi, 5, N=12)
        assert S.constant == Fraction(4, 3)
        for n in range(1, 13):
            assert S.coeffs[n] == 8 * sigma1(n, 5)

    def test_d28_p3(self):
        F, G, psi = _setup(7)
        S = diagonal_restriction(F, G, psi, 3, N=10)
        assert S.constant == 2
        for n in range(1, 11):
            assert S.coeffs[n] == 24 * sigma1(n, 3)

    def test_d12_p13_zero(self):
        F, G, psi = _setup(3)
        S = diagonal_restriction(F, G, psi, 13, N=8)
        assert S.is_zero() and not S.inert

    def test_d12_p11_values(self):
        F, G, psi = _setup(3)
        S = diagonal_restriction(F, G, psi, 11, N=6)
        assert S.constant == Fraction(2, 3)
        assert [S.coeffs[n] for n in range(1, 7)] == [0, 8, 8, 8, 8, 16]

    def test_inert_marker(self):
        F, G, psi = _setup(3)
        S = diagonal_restriction(F, G, psi, 5, N=6)
        assert S.inert and S.is_zero()

    def test_integrality_mod4(self):
        for D, p in ((3, 11), (6, 5), (7, 3)):
            F, G, psi = _setup(D)
            S = diagonal_restriction(F, G, psi, p, N=10)
            for v in S.coeffs.values():
                assert v % 4 == 0

    def test_odd_pairing_is_caught(self, monkeypatch, capsys):
        # characters of order 2 and 4 have even traces, so only one of
        # order 3 or 6 can weight the rows to an odd pairing: at (79, 5)
        # the order-6 traces are 2, 1, 1, -1, -1, -2, and one more
        # crossing at n = 1 for class 1 (trace 1) makes -36 into -35
        F, G, psi = _setup(79)
        assert psi.order == 6 and psi.trace(1) == 1
        table = rqgeo.series.pairing_table

        def odd(*args):
            rows = list(table(*args))
            rows[1] = (rows[1][0] + 1,) + rows[1][1:]
            return tuple(rows)
        monkeypatch.setattr(rqgeo.series, "pairing_table", odd)
        with pytest.raises(AssertionError, match=r"^pairing is odd: -35$"):
            diagonal_restriction(F, G, psi, 5, N=2)
        code = rqgeo.cli.run(["series", "--D", "79", "--p", "5", "--N", "2"])
        out, err = capsys.readouterr()
        assert code == rqgeo.cli.EXIT_INTERNAL and out == ""
        assert "internal error: AssertionError: pairing is odd: -35" in err

    def test_metadata(self):
        F, G, psi = _setup(6)
        S = diagonal_restriction(F, G, psi, 5, N=4)
        assert S.metadata["kappa"] == 2
        assert S.metadata["d_F"] == 24
        assert S.metadata["p"] == 5
        assert S.metadata["r"] == 8

    def test_rejects_bad_input(self):
        F, G, psi = _setup(3)
        with pytest.raises(ValueError):
            diagonal_restriction(F, G, psi, 13, N=0)
        triv = [c for c in all_characters(G) if c.is_trivial()][0]
        with pytest.raises(ValueError):
            diagonal_restriction(F, G, triv, 13, N=5)
        with pytest.raises(ValueError):
            diagonal_restriction(F, G, psi, 13, N=5, r=7)


class TestInvariance:
    def test_r_plus_2p(self):
        F, G, psi = _setup(6)
        a = diagonal_restriction(F, G, psi, 5, N=8)
        b = diagonal_restriction(F, G, psi, 5, N=8, r=8 + 10)
        c = diagonal_restriction(F, G, psi, 5, N=8, r=8 + 20)
        assert a == b == c

    def test_r_sign_swap(self):
        # the twisted cycle contains both square roots, so r -> -r is a
        # relabeling of the pair
        F, G, psi = _setup(7)
        a = diagonal_restriction(F, G, psi, 3, N=8)
        b = diagonal_restriction(F, G, psi, 3, N=8, r=-8)
        assert a == b

    def test_psi_inverse(self):
        for D, p in ((3, 11), (6, 5)):
            F, G, psi = _setup(D)
            a = diagonal_restriction(F, G, psi, p, N=8)
            b = diagonal_restriction(F, G, psi.inverse(), p, N=8)
            assert a == b

    def test_orders_4_and_6(self):
        # every odd character of order 4 or 6 of squarefree D < 439 at
        # split p in {3, 5, 7, 13}: integer coefficients (the parity
        # assert of _coefficient has content where traces are +-1), a
        # modular series, and psi^-1 giving the same series
        seen, nonzero = set(), 0
        for D in range(2, 439):
            if squarefree_part(D)[1] != 1:
                continue
            F = build_field(D)
            G = narrow_class_group(F)
            for psi in odd_characters(G):
                if psi.order == 2:
                    continue
                for p in (3, 5, 7, 13):
                    if F.d_F % p == 0 or pow(F.d_F, (p - 1) // 2, p) != 1:
                        continue
                    S = diagonal_restriction(F, G, psi, p, N=10)
                    assert isinstance(S.constant, (int, Fraction))
                    assert all(type(v) is int for v in S.coeffs.values())
                    assert modularity_check(S).passed, (D, p, psi)
                    assert S == diagonal_restriction(F, G, psi.inverse(),
                                                     p, N=10), (D, p, psi)
                    seen.add((D, p, psi.order))
                    nonzero += not S.is_zero()
        assert (142, 7, 6) in seen and (34, 3, 4) in seen
        assert {order for _, _, order in seen} == {4, 6}
        assert nonzero > len(seen) // 2

    def test_algorithms_agree(self):
        # the series from the Manin rows equals the series from the
        # translate sums, each translate counted by the reduction cycle and
        # the Farey walk, and the rows pass the table's check
        F, G, psi = _setup(6)
        r = choose_r(F, 5)
        S = diagonal_restriction(F, G, psi, 5, N=8)
        check_pairing_table(F, G, 5, (r,), 8)
        cyc = twisted_cycle(F, G, psi, 5, r)
        assert S.coeffs == {
            n: _coefficient(pair_with_twisted_cycle(cyc, n)[0])
            for n in range(1, 9)}

    def test_both_checks_each_entry(self, monkeypatch):
        # a Farey table off by one at key 1 of every point: at (6, 5) no
        # edge count of T_n W, n <= 4, has key 1, so every pairing of the
        # wrong table still equals the point's row and only the
        # entry-by-entry comparison sees it
        F, G, _ = _setup(6)
        farey = rqgeo.series.manin_table_enum

        def corrupted(Q):
            table = farey(Q)
            table[1] = table.get(1, 0) + 1
            return table
        monkeypatch.setattr(rqgeo.series, "manin_table_enum", corrupted)
        r = choose_r(F, 5)
        for row, Q in zip(pairing_table(F, G, 5, r, 4), rm_points(F, G, 5, r)):
            assert pairing_row(corrupted(Q), merel_counts(4, 5)) == row
        with pytest.raises(AlgorithmMismatch, match=r"RM point .* at key 1:"):
            check_pairing_table(F, G, 5, (r,), 4)

    @pytest.mark.parametrize("wrong, first", [
        (lambda merel, tables, N, p: tuple(
            row[:1] + tuple(x - t.get(p, 0) for x in row[1:])
            for row, t in zip(merel(tables, N, p), tables)),
         2),
        (lambda merel, tables, N, p: merel(
            [{p if k == 0 else 0 if k == p else pow(k, -1, p): x
              for k, x in t.items()} for t in tables], N, p),
         1)],
        ids=["dropped", "transposed"])
    def test_both_checks_each_row(self, monkeypatch, wrong, first):
        # drop one matrix of Merel's set for every n > 1 (the
        # (n, 0; 0, 1) of key p, among the closed-form rows (0 : d)), or
        # key every matrix by its transposed bottom row (d : c), which
        # pairs each table with its entries moved from key k to the key
        # of the transposed row: each Manin table still agrees with its
        # Farey walk, so only the row check against the left cosets of
        # manin_pairings sees it
        merel = rqgeo.series.merel_pairings
        monkeypatch.setattr(rqgeo.series, "merel_pairings",
                            lambda tables, N, p: wrong(merel, tables, N, p))
        F, G, _ = _setup(6)
        with pytest.raises(AlgorithmMismatch,
                           match=r"RM point .* at n=%d:" % first):
            check_pairing_table(F, G, 5, (choose_r(F, 5),), 4)

    def test_unknown_algorithm(self):
        # the Manin-row table is the only algorithm; the translate sums
        # are check_pairing_table's
        F, G, psi = _setup(6)
        for name in ("enum", "both", "foo"):
            with pytest.raises(ValueError, match="unknown algorithm"):
                diagonal_restriction(F, G, psi, 5, N=2, algorithm=name)


class TestPairingTable:
    # h+ = 2, 4 and 8, every p in {3, 5, 7, 11, 13}, fields with one,
    # two and four odd characters of order 2
    CASES = ((6, 5), (7, 3), (91, 3), (174, 5), (95, 7), (115, 11),
             (42, 13), (210, 11), (219, 7))

    @staticmethod
    def _count_manin_tables(monkeypatch):
        calls = []
        table = rqgeo.series.manin_table

        def counted(Q):
            calls.append(Q)
            return table(Q)
        monkeypatch.setattr(rqgeo.series, "manin_table", counted)
        return calls

    def test_minus_rows_are_reversed_plus_rows(self):
        # the row of class sigma(c) = c^-1 s in the table at -r is the
        # negated row of c in the table at r, s the class of
        # (sqrt(d_F)): the two tables pair the points of their own
        # searches
        N = 6
        tables = 0
        for D in range(2, 100):
            if squarefree_part(D)[1] != 1:
                continue
            F = build_field(D)
            G = narrow_class_group(F)
            s = G.class_of_principal_sqrt_dF
            for p in (3, 5, 7, 11, 13):
                if F.d_F % p == 0 or pow(F.d_F, (p - 1) // 2, p) != 1:
                    continue
                r = choose_r(F, p)
                for c, plus in enumerate(rm_points(F, G, p, r)):
                    assert G.classify(plus.reversed().form) == G.sigma(c) \
                        == G.compose(G.inverse(c), s), (D, p, c)
                plus, minus = (pairing_table(F, G, p, t, N) for t in (r, -r))
                assert [minus[G.sigma(c)] for c in range(G.h)] == [
                    tuple(-v for v in row) for row in plus], (D, p)
                tables += 1
        assert tables == 123

    def test_tables_of_the_shifted_roots(self):
        # what verify's r_plus_2p and pm_halves rest on, at every
        # squarefree D < 600 whose unit has norm +1 and every split
        # p < 30: the Manin tables at r + 2p equal those at r class by
        # class, and the table of sigma(c) at -(r + 2p) is the negated
        # table of c at r
        start = time.perf_counter()
        levels = 0
        for D in range(2, 600):
            if squarefree_part(D)[1] != 1:
                continue
            F = build_field(D)
            if F.unit_norm < 0:
                continue
            G = narrow_class_group(F)
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
                if F.d_F % p == 0 or pow(F.d_F, (p - 1) // 2, p) != 1:
                    continue
                r = choose_r(F, p)
                plus, shifted, opposite = (
                    [t for _, t in manin_tables(F, G, p, s)]
                    for s in (r, r + 2 * p, -r - 2 * p))
                assert shifted == plus, (D, p)
                assert [opposite[G.sigma(c)] for c in range(G.h)] == [
                    {k: -v for k, v in t.items()} for t in plus], (D, p)
                levels += 1
        assert levels == 1106
        assert time.perf_counter() - start < 20

    def test_shift_by_2p_keeps_every_row(self):
        # the RM points of r and of r +- 2p (away from zero) share
        # b = -r (mod 2p), so each class's points are Gamma0(p)-equivalent
        # (Gross-Kohnen-Zagier) and the two tables are equal row by row
        N = 6
        pairs = 0
        for D in range(2, 160):
            if squarefree_part(D)[1] != 1:
                continue
            F = build_field(D)
            G = narrow_class_group(F)
            for p in (3, 5, 7, 11, 13):
                if F.d_F % p == 0 or pow(F.d_F, (p - 1) // 2, p) != 1:
                    continue
                r = choose_r(F, p)
                for s in (r, -r):
                    shifted = s + 2 * p if s > 0 else s - 2 * p
                    assert pairing_table(F, G, p, shifted, N) == \
                        pairing_table(F, G, p, s, N), (D, p, s)
                    pairs += 1
        assert pairs == 410

    def test_misfiled_points_are_caught(self, monkeypatch):
        # RM points in reversed class order still make a permutation of
        # reversed classes, but not the law c -> c^-1 s
        points = rqgeo.series.rm_points
        monkeypatch.setattr(rqgeo.series, "rm_points",
                            lambda *args: points(*args)[::-1])
        F, G, _ = _setup(6)
        assert G.h == 2
        with pytest.raises(AssertionError, match="misfiled"):
            pairing_table(F, G, 5, choose_r(F, 5), 3)

    def test_equals_twisted_cycle_pairing(self):
        N = 4
        for D, p in self.CASES:
            F = build_field(D)
            G = narrow_class_group(F)
            r = choose_r(F, p)
            chars = [psi for psi in odd_characters(G) if psi.order == 2]
            assert chars, D
            for psi in chars:
                S = diagonal_restriction(F, G, psi, p, N=N)
                cyc = twisted_cycle(F, G, psi, p, r)
                assert S.coeffs == {
                    n: _coefficient(pair_with_twisted_cycle(cyc, n)[0])
                    for n in range(1, N + 1)}, (D, p, psi.exponents)

    def test_characters_share_the_table(self, monkeypatch):
        F = build_field(210)
        G = narrow_class_group(F)
        first, *others = odd_characters(G)
        assert len(others) == 3
        calls = self._count_manin_tables(monkeypatch)
        diagonal_restriction(F, G, first, 11, N=3)
        # one +r point per class is paired
        assert len(calls) == G.h
        del calls[:]
        for psi in others:
            diagonal_restriction(F, G, psi, 11, N=3)
            diagonal_restriction(F, G, psi.inverse(), 11, N=3)
        assert calls == []

    def test_walk_keeps_to_its_bound(self):
        # one walk at N = 240 holds a sum per denominator and one path per
        # level of the tree, not the paths or the count rows
        F, G, _ = _setup(6)
        r = choose_r(F, 5)
        manin_tables(F, G, 5, r)
        tracemalloc.start()
        try:
            pairing_table(F, G, 5, r, 240)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2 ** 20, peak

    def test_fresh_field_recomputes(self, monkeypatch):
        calls = self._count_manin_tables(monkeypatch)
        results = []
        for _ in range(2):
            F, G, psi = _setup(6)
            results.append(diagonal_restriction(F, G, psi, 5, N=3))
        assert len(calls) == 2 * 2
        assert results[0] == results[1]

    def test_check_reads_the_series_tables(self, monkeypatch):
        # the check of the series' root at another N searches no RM
        # point and walks no cycle again: it reads the points and Manin
        # tables that the series paired
        searches = []
        candidates = rqgeo.geodesic._rm_candidates

        def counted(d, p, s):
            searches.append(s)
            return candidates(d, p, s)
        monkeypatch.setattr(rqgeo.geodesic, "_rm_candidates", counted)
        walks = self._count_manin_tables(monkeypatch)
        F, G, psi = _setup(6)
        r = choose_r(F, 5)
        diagonal_restriction(F, G, psi, 5, N=4)
        check_pairing_table(F, G, 5, (r,), 8)
        assert searches == [r]
        assert [Q.form for Q in walks] == [Q.form
                                           for Q in rm_points(F, G, 5, r)]

    def test_cycle_builds_no_translate(self, monkeypatch):
        # the table reads every pairing off the Manin tables, and its
        # check compares Manin tables and Merel's set: neither builds a
        # translate
        def refused(*args, **kwargs):
            raise AssertionError("Hecke translate on the cycle path")
        for name in ("hecke_translate", "double_cosets"):
            monkeypatch.setattr(rqgeo.hecke, name, refused)
        F, G, psi = _setup(6)
        S = diagonal_restriction(F, G, psi, 5, N=12)
        assert [S.coeffs[n] for n in range(1, 13)] == [
            8 * sigma1(n, 5) for n in range(1, 13)]
        r = choose_r(F, 5)
        check_pairing_table(F, G, 5, (r, -r, r + 10), 12)


# every split (D, p), D squarefree below 300 and p <= 23
SPLIT = tuple((D, p) for D in range(2, 300) if squarefree_part(D)[1] == 1
              for p in (3, 5, 7, 11, 13, 17, 19, 23)
              if pow(D if D % 4 == 1 else 4 * D, (p - 1) // 2, p) == 1)


@settings(max_examples=8, deadline=None)
@given(pair=st.sampled_from(SPLIT), N=st.integers(1, 20))
def test_cycle_table_equals_enum_table(pair, N):
    # the table's check at r and -r, and the Manin rows against the
    # translate sums, each translate counted by both algorithms; eight
    # draws keep it to a few seconds
    D, p = pair
    F = build_field(D)
    G = narrow_class_group(F)
    r = choose_r(F, p)
    check_pairing_table(F, G, p, (r, -r), N)
    for s in (r, -r):
        for row, Q in zip(pairing_table(F, G, p, s, N), rm_points(F, G, p, s)):
            assert row == tuple(pair_with_twisted_cycle(((1, Q),), n)[0]
                                for n in range(1, N + 1)), (D, p, s, Q)


class TestModularityCheck:
    def test_passes_on_real_series(self):
        for D, p in ((3, 11), (3, 13), (6, 5), (7, 3)):
            F, G, psi = _setup(D)
            S = diagonal_restriction(F, G, psi, p, N=10)
            assert modularity_check(S).passed

    def test_fault_injection_coefficient(self):
        F, G, psi = _setup(6)
        S = diagonal_restriction(F, G, psi, 5, N=10)
        S.coeffs[7] += 4
        rep = modularity_check(S)
        assert not rep.passed and rep.first_fail == 7

    def test_fault_injection_constant(self):
        F, G, psi = _setup(6)
        S = diagonal_restriction(F, G, psi, 5, N=10)
        S.constant += 1
        rep = modularity_check(S)
        assert not rep.passed and rep.first_fail == 0

    def test_fault_injection_p11(self):
        F, G, psi = _setup(3)
        S = diagonal_restriction(F, G, psi, 11, N=10)
        S.coeffs[9] -= 8
        rep = modularity_check(S)
        assert not rep.passed and rep.first_fail == 9

    def test_p11_needs_two_terms(self):
        # alpha and beta come from (constant, a_1), so a_2 is the first
        # coefficient left to check
        F, G, psi = _setup(3)
        for N in (2, 3):
            rep = modularity_check(diagonal_restriction(F, G, psi, 11, N=N))
            assert rep.passed and rep.mode == "dim2", N
        S = diagonal_restriction(F, G, psi, 11, N=2)
        S.coeffs[2] += 4
        rep = modularity_check(S)
        assert not rep.passed and rep.first_fail == 2
        with pytest.raises(ValueError, match="N >= 2"):
            modularity_check(diagonal_restriction(F, G, psi, 11, N=1))

    def test_unsupported_level(self):
        S = QSeries(1, {1: 1, 2: 3}, {"p": 17})
        with pytest.raises(ValueError):
            modularity_check(S)

    def test_zero_series_trivially_modular(self):
        S = QSeries(0, {n: 0 for n in range(1, 6)}, {"p": 17})
        assert modularity_check(S).passed
