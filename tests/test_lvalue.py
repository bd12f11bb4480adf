from fractions import Fraction

import pytest

from rqgeo.exact import Mat2, QuadIrr, squarefree_part
from rqgeo.field import all_characters, build_field, narrow_class_group, odd_characters
from rqgeo.geodesic import choose_r
from rqgeo.lvalue import (
    L_value_genus_oracle,
    L_value_zagier,
    NotApplicable,
    constant_term,
    dirichlet_L0,
    euler_factor,
    kronecker,
    partial_zeta_values,
)
from rqgeo.oracles import minus_cf_cycle, zeta_F_0_numeric

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
                cyc = minus_cf_cycle(G.positive_rep(i).plus_root())
                assert all(b >= 2 for b in cyc)

    def test_entry_point_irrelevant(self):
        # representative-independence: a translated form has a different
        # root but enters the same cycle (up to rotation)
        F = build_field(6)
        G = narrow_class_group(F)
        f = G.positive_rep(1)
        g = f.apply(Mat2(1, 2, 0, 1))
        c1 = sorted(minus_cf_cycle(f.plus_root()))
        c2 = sorted(minus_cf_cycle(g.plus_root()))
        assert c1 == c2


class TestPartialZetas:
    def test_d12(self):
        F = build_field(3)
        G = narrow_class_group(F)
        assert partial_zeta_values(F, G) == (Fraction(1, 12), Fraction(-1, 12))

    def test_d24_d28(self):
        F6 = build_field(6)
        assert partial_zeta_values(F6, narrow_class_group(F6)) == (
            Fraction(1, 6), Fraction(-1, 6))
        F7 = build_field(7)
        assert partial_zeta_values(F7, narrow_class_group(F7)) == (
            Fraction(1, 4), Fraction(-1, 4))

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
                cyc = minus_cf_cycle(G.positive_rep(i).plus_root())
                want.append(Fraction(sum(cyc) - 3 * len(cyc), 12))
            assert partial_zeta_values(F, G) == tuple(want), D

    def test_trivial_sum_is_dedekind_zeta_at_zero(self):
        for D in (3, 5, 6, 7, 10):
            F = build_field(D)
            G = narrow_class_group(F)
            total = sum(partial_zeta_values(F, G))
            assert abs(float(total) - zeta_F_0_numeric(F.d_F)) < 1e-8

    def test_fourier_inversion(self):
        # characters resolve the individual partial zetas
        for D in (3, 6, 7, 10, 15):
            F = build_field(D)
            G = narrow_class_group(F)
            zetas = partial_zeta_values(F, G)
            chars = all_characters(G)
            for i in range(G.h):
                acc = 0
                for ch in chars:
                    s = sum(ch(j) * zetas[j] for j in range(G.h))
                    acc += ch.inverse()(i) * s
                if isinstance(acc, complex):
                    assert abs(acc - G.h * complex(zetas[i])) < 1e-12
                else:
                    assert acc == G.h * zetas[i]


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
            z = L_value_zagier(F, G, psi)
            g = L_value_genus_oracle(F, G, psi)
            assert z == g == expected[D]

    def test_trivial_not_applicable(self):
        F = build_field(3)
        G = narrow_class_group(F)
        triv = [c for c in all_characters(G) if c.is_trivial()][0]
        with pytest.raises(NotApplicable):
            L_value_genus_oracle(F, G, triv)


class TestEulerFactor:
    def test_d12_p13_principal_primes(self):
        F = build_field(3)
        G = narrow_class_group(F)
        psi = odd_characters(G)[0]
        rc = choose_r(F, 13)
        assert euler_factor(F, G, psi, 13, rc.r) == 0

    def test_nonprincipal_primes(self):
        for D, p in ((3, 11), (6, 5), (7, 3)):
            F = build_field(D)
            G = narrow_class_group(F)
            psi = odd_characters(G)[0]
            rc = choose_r(F, p)
            assert euler_factor(F, G, psi, p, rc.r) == 4

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
        rc = choose_r(F, 5)
        for k in (0, 1, 2, -1):
            assert euler_factor(F, G, psi, 5, rc.r + 2 * 5 * k) == 4


class TestConstantTerm:
    def test_values(self):
        expected = {(3, 13): 0, (3, 11): Fraction(2, 3),
                    (6, 5): Fraction(4, 3), (7, 3): 2}
        for (D, p), want in expected.items():
            F = build_field(D)
            G = narrow_class_group(F)
            psi = odd_characters(G)[0]
            rc = choose_r(F, p)
            lv = constant_term(F, G, psi, p, rc.r)
            assert lv.value == want
            assert lv.value == lv.euler_factor_p * lv.raw_L

    def test_psi_inverse_symmetry(self):
        for D, p in ((3, 13), (6, 5), (7, 3)):
            F = build_field(D)
            G = narrow_class_group(F)
            psi = odd_characters(G)[0]
            rc = choose_r(F, p)
            a = constant_term(F, G, psi, p, rc.r)
            b = constant_term(F, G, psi.inverse(), p, rc.r)
            assert a.value == b.value

    def test_even_character_rejected(self):
        F = build_field(3)
        G = narrow_class_group(F)
        triv = [c for c in all_characters(G) if c.is_trivial()][0]
        with pytest.raises(ValueError):
            constant_term(F, G, triv, 13, 8)
