from fractions import Fraction

import pytest

import rqgeo.cli
import rqgeo.field
import rqgeo.lvalue
from rqgeo.exact import Mat2, squarefree_part
from rqgeo.field import (
    all_characters,
    build_field,
    class_of_ideal,
    narrow_class_group,
    odd_characters,
)
from rqgeo.geodesic import choose_r
from rqgeo.lvalue import (
    L_value_genus_oracle,
    L_value_zagier,
    NotApplicable,
    constant_term,
    dirichlet_L0,
    euler_factor,
    partial_zeta_values,
)
from rqgeo.oracles import (
    QuadIrr,
    kronecker,
    minus_cf_cycle,
    plus_root,
    zeta_F_0_numeric,
)

FIELDS = (3, 6, 7)


class TestMinusCF:
    def test_golden_like(self):
        # (3 + sqrt(5))/2 is reduced: cycle [3, 3, 3, ...] of length 1
        w = QuadIrr(3, 1, 2, 5)
        assert minus_cf_cycle(w) == (3,)

    def test_digits_at_least_two(self):
        for D in (3, 6, 7, 10, 15):
            F = build_field(D)
            G = narrow_class_group(F)
            for i in range(G.h):
                cyc = minus_cf_cycle(plus_root(G.positive_rep(i)))
                assert all(b >= 2 for b in cyc)

    def test_entry_point_irrelevant(self):
        # representative-independence: a translated form has a different
        # root but enters the same cycle (up to rotation)
        F = build_field(6)
        G = narrow_class_group(F)
        f = G.positive_rep(1)
        g = f.apply(Mat2(1, 2, 0, 1))
        c1 = sorted(minus_cf_cycle(plus_root(f)))
        c2 = sorted(minus_cf_cycle(plus_root(g)))
        assert c1 == c2


class TestPartialZetas:
    def test_d12(self):
        F = build_field(3)
        G = narrow_class_group(F)
        assert partial_zeta_values(G) == (Fraction(1, 12), Fraction(-1, 12))

    def test_d24_d28(self):
        F6 = build_field(6)
        assert partial_zeta_values(narrow_class_group(F6)) == (
            Fraction(1, 6), Fraction(-1, 6))
        F7 = build_field(7)
        assert partial_zeta_values(narrow_class_group(F7)) == (
            Fraction(1, 4), Fraction(-1, 4))

    def test_no_walk_once_the_group_is_built(self, monkeypatch):
        # the class group keeps each cycle's deltas from the walk that
        # found it; the partial zeta values only sum them
        F = build_field(210)
        G = narrow_class_group(F)

        def no_step(*args):
            raise AssertionError("partial_zeta_values walked a cycle")
        monkeypatch.setattr(rqgeo.field, "_rho", no_step)
        assert sum(partial_zeta_values(G)) == 0

    def test_reduced_cycle_matches_minus_cf(self):
        # (1/12) sum(delta) over the reduced cycle against Zagier's
        # (1/12) sum(b - 3) over the minus continued fraction cycle
        for D in range(2, 400):
            if squarefree_part(D)[1] != 1:
                continue
            F = build_field(D)
            G = narrow_class_group(F)
            want = []
            for i in range(G.h):
                cyc = minus_cf_cycle(plus_root(G.positive_rep(i)))
                want.append(Fraction(sum(cyc) - 3 * len(cyc), 12))
            assert partial_zeta_values(G) == tuple(want), D

    def test_trivial_sum_is_dedekind_zeta_at_zero(self):
        for D in (3, 5, 6, 7, 10):
            F = build_field(D)
            G = narrow_class_group(F)
            total = sum(partial_zeta_values(G))
            assert abs(float(total) - zeta_F_0_numeric(F.d_F)) < 1e-8

    def test_fourier_inversion(self):
        # characters resolve the individual partial zetas
        for D in (3, 6, 7, 10, 15):
            F = build_field(D)
            G = narrow_class_group(F)
            zetas = partial_zeta_values(G)
            chars = all_characters(G)
            for i in range(G.h):
                acc = 0
                for ch in chars:
                    s = sum(ch(j) * zetas[j] for j in range(G.h))
                    acc += ch.inverse()(i) * s
                assert acc == G.h * zetas[i]

    def test_inverse_class_same_value(self):
        # zeta(c, 0) = zeta(c^-1, 0), by Galois conjugation: what lets
        # L(psi, 0) read psi only through psi + conj(psi)
        for D in range(2, 1000):
            if squarefree_part(D)[1] != 1:
                continue
            G = narrow_class_group(build_field(D))
            zetas = partial_zeta_values(G)
            for c in range(G.h):
                assert zetas[c] == zetas[G.inverse(c)], (D, c)


class TestKronecker:
    def test_euler_criterion_at_odd_primes(self):
        for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            for a in range(-2 * q, 2 * q + 1):
                e = pow(a, (q - 1) // 2, q)
                assert kronecker(a, q) == (e if e <= 1 else -1)

    def test_at_two(self):
        for d in range(-40, 41):
            want = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
            assert kronecker(d, 2) == want

    def test_multiplicative_in_the_bottom(self):
        for a in range(-30, 31):
            for b in range(1, 25):
                for c in range(1, 25):
                    assert (kronecker(a, b * c)
                            == kronecker(a, b) * kronecker(a, c))

    def test_small_cases(self):
        assert kronecker(5, 0) == 0 and kronecker(-1, 0) == 1
        assert kronecker(3, -1) == 1 and kronecker(-3, -1) == -1
        assert kronecker(-4, 3) == -1 and kronecker(12, 5) == -1


class TestDirichletL0:
    def test_odd_values(self):
        assert dirichlet_L0(-3) == Fraction(1, 3)
        assert dirichlet_L0(-4) == Fraction(1, 2)
        assert dirichlet_L0(-7) == 1
        assert dirichlet_L0(-8) == 1

    def test_bernoulli_sums(self):
        # the class-number count against -B_{1,chi} for every negative
        # fundamental discriminant above -2000
        count = 0
        for d in range(-1, -2000, -1):
            try:
                value = dirichlet_L0(d)
            except ValueError:
                continue
            m = -d
            assert value == Fraction(
                -sum(kronecker(d, a) * a for a in range(1, m)), m), d
            count += 1
        assert count > 500

    def test_even_vanishes(self):
        assert dirichlet_L0(5) == 0
        assert dirichlet_L0(12) == 0

    def test_non_fundamental_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_L0(-12)
        with pytest.raises(ValueError):
            dirichlet_L0(3)


class TestGenusOracle:
    def test_matches_zagier(self):
        expected = {3: Fraction(1, 6), 6: Fraction(1, 3), 7: Fraction(1, 2)}
        for D in FIELDS:
            F = build_field(D)
            G = narrow_class_group(F)
            psi = odd_characters(G)[0]
            z = L_value_zagier(G, psi)
            g = L_value_genus_oracle(F, psi)
            assert z == g == expected[D]

    def test_trivial_not_applicable(self):
        F = build_field(3)
        G = narrow_class_group(F)
        triv = [c for c in all_characters(G) if c.is_trivial()][0]
        with pytest.raises(NotApplicable):
            L_value_genus_oracle(F, triv)
        G = narrow_class_group(build_field(34))
        order_4 = odd_characters(G)[0]
        assert order_4.order == 4
        with pytest.raises(NotApplicable):
            L_value_genus_oracle(G.field, order_4)

    def test_every_odd_genus_character(self):
        # the splitting of d_F is chosen by psi, so no odd character of
        # order 2 is skipped, in fields with several negative splittings
        # too, and constant_term cross-checks every one of them
        checked, several = 0, 0
        for D in range(2, 300):
            if squarefree_part(D)[1] != 1:
                continue
            F = build_field(D)
            G = narrow_class_group(F)
            chars = [psi for psi in odd_characters(G) if psi.order == 2]
            for psi in chars:
                assert L_value_genus_oracle(F, psi) == L_value_zagier(G, psi)
                checked += 1
            several += len(chars) > 1
        assert checked == 192 and several > 0


class TestEulerFactor:
    def test_d12_p13_principal_primes(self):
        F = build_field(3)
        G = narrow_class_group(F)
        psi = odd_characters(G)[0]
        r = choose_r(F, 13)
        assert euler_factor(F, G, psi, 13, r) == 0

    def test_nonprincipal_primes(self):
        for D, p in ((3, 11), (6, 5), (7, 3)):
            F = build_field(D)
            G = narrow_class_group(F)
            psi = odd_characters(G)[0]
            r = choose_r(F, p)
            assert euler_factor(F, G, psi, p, r) == 4

    def test_bad_r_rejected(self):
        F = build_field(3)
        G = narrow_class_group(F)
        psi = odd_characters(G)[0]
        with pytest.raises(ValueError):
            euler_factor(F, G, psi, 13, 7)

    def test_r_shift_invariance(self):
        F = build_field(6)
        G = narrow_class_group(F)
        psi = odd_characters(G)[0]
        r = choose_r(F, 5)
        for k in (0, 1, 2, -1):
            assert euler_factor(F, G, psi, 5, r + 2 * 5 * k) == 4

    def test_conjugate_prime_is_inverse_class(self):
        # P P^sigma = (p) is principal and totally positive
        cases = 0
        for D in range(2, 300):
            if squarefree_part(D)[1] != 1:
                continue
            F = build_field(D)
            G = narrow_class_group(F)
            for p in (3, 5, 7, 11, 13, 17, 19, 23):
                if F.d_F % p == 0 or pow(F.d_F, (p - 1) // 2, p) != 1:
                    continue
                r = choose_r(F, p)
                assert class_of_ideal(G, (p, -r)) == \
                    G.inverse(class_of_ideal(G, (p, r))), (D, p)
                cases += 1
        assert cases > 400

    def test_primes_classified_once_per_field(self, monkeypatch):
        # the four odd characters of D = 210 at p = 11 share one
        # classification of P = (p, r); P^sigma = (p, -r) is in the
        # inverse class, so it is not classified.  The genus oracle's
        # primes over split ell, 11 among them, are shared the same way
        F = build_field(210)
        G = narrow_class_group(F)
        r = choose_r(F, 11)
        chars = odd_characters(G)
        assert len(chars) == 4
        P, Ps = class_of_ideal(G, (11, r)), class_of_ideal(G, (11, -r))
        calls = []
        classify = rqgeo.lvalue.class_of_ideal
        monkeypatch.setattr(rqgeo.lvalue, "class_of_ideal",
                            lambda G, spec: calls.append(spec) or classify(G, spec))
        for psi in chars:
            assert constant_term(F, G, psi, 11, r) == \
                (1 - psi(P)) * (1 - psi(Ps)) * L_value_zagier(G, psi)
        assert calls.count((11, r)) == 1 and (11, -r) not in calls
        assert len(calls) == len(set(calls))


class TestConstantTerm:
    def test_values(self):
        expected = {(3, 13): 0, (3, 11): Fraction(2, 3),
                    (6, 5): Fraction(4, 3), (7, 3): 2}
        for (D, p), want in expected.items():
            F = build_field(D)
            G = narrow_class_group(F)
            psi = odd_characters(G)[0]
            r = choose_r(F, p)
            value = constant_term(F, G, psi, p, r)
            assert value == want
            assert value == euler_factor(F, G, psi, p, r) \
                * L_value_zagier(G, psi)

    def test_psi_inverse_symmetry(self):
        for D, p in ((3, 13), (6, 5), (7, 3)):
            F = build_field(D)
            G = narrow_class_group(F)
            psi = odd_characters(G)[0]
            r = choose_r(F, p)
            assert constant_term(F, G, psi, p, r) == \
                constant_term(F, G, psi.inverse(), p, r)

    def test_even_character_rejected(self):
        F = build_field(3)
        G = narrow_class_group(F)
        triv = [c for c in all_characters(G) if c.is_trivial()][0]
        with pytest.raises(ValueError):
            constant_term(F, G, triv, 13, 8)

    def test_genus_oracle_disagreement_is_caught(self, monkeypatch, capsys):
        # at (6, 5) the genus oracle applies: a value off by one fails
        # the cross-check, and series exits 4 and writes nothing
        oracle = rqgeo.lvalue.L_value_genus_oracle
        monkeypatch.setattr(rqgeo.lvalue, "L_value_genus_oracle",
                            lambda F, psi: oracle(F, psi) + 1)
        F = build_field(6)
        G = narrow_class_group(F)
        psi = odd_characters(G)[0]
        with pytest.raises(AssertionError) as info:
            constant_term(F, G, psi, 5, choose_r(F, 5))
        assert info.value.args == ((Fraction(1, 3), Fraction(4, 3)),)
        code = rqgeo.cli.run(["series", "--D", "6", "--p", "5", "--N", "4"])
        out, err = capsys.readouterr()
        assert code == rqgeo.cli.EXIT_INTERNAL and out == ""
        assert "internal error: AssertionError: (Fraction(1, 3), " \
            "Fraction(4, 3))" in err
