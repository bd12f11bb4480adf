import math
import random
from fractions import Fraction

import pytest

from rqgeo.exact import QuadIrr, squarefree_part
from rqgeo.field import (
    QuadForm,
    all_characters,
    automorph,
    build_field,
    class_of_ideal,
    form_cycle,
    gauss_compose,
    ideal_to_form,
    narrow_class_group,
    odd_characters,
    pell_plus,
    reduce_form,
)
from rqgeo.oracles import canonical_rep, multiply_ideals, sl2_equivalence


class TestBuildField:
    def test_discriminants(self):
        assert build_field(3).d_F == 12
        assert build_field(5).d_F == 5
        assert build_field(6).d_F == 24
        assert build_field(7).d_F == 28

    def test_unit_d3(self):
        F = build_field(3)
        assert F.eps == QuadIrr(2, 1, 1, 3)
        assert F.unit_norm == 1
        assert F.eps_plus == F.eps

    def test_unit_d5(self):
        F = build_field(5)
        assert F.eps == QuadIrr(1, 1, 2, 5)
        assert F.unit_norm == -1
        assert F.eps_plus == F.eps * F.eps
        assert F.eps_plus.norm() == 1

    def test_lambda(self):
        F = build_field(3)
        assert F.lam == QuadIrr(12, 1, 2, 12)
        # lam satisfies x^2 - d x + (d^2-d)/4 = 0 with d = d_F
        lam = F.lam
        assert lam * lam - 12 * lam + Fraction(12 * 12 - 12, 4) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_field(12)
        with pytest.raises(ValueError):
            build_field(1)

    def test_eps_plus_totally_positive(self):
        for D in (2, 3, 5, 6, 7, 10, 11, 13):
            e = build_field(D).eps_plus
            assert e.sign() == 1 and e.conjugate().sign() == 1
            assert e > 1


def _brute_unit(d):
    """Smallest (t, u, norm) with t^2 - d u^2 = norm * 4, norm = +-1."""
    u = 1
    while True:
        for sgn in (-1, 1):
            t2 = d * u * u + 4 * sgn
            if t2 > 0 and math.isqrt(t2) ** 2 == t2:
                return math.isqrt(t2), u, sgn
        u += 1


class TestFundamentalUnit:
    def test_matches_brute_force(self):
        for D in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23,
                  26, 29, 30, 31, 33, 34, 35, 37, 38, 39, 41, 42, 43):
            F = build_field(D)
            t, u, sgn = _brute_unit(F.d_F)
            assert F.eps == QuadIrr(t, u, 2, F.d_F)
            assert F.unit_norm == sgn

    @pytest.mark.parametrize("D", (139, 151, 163, 166, 199, 211, 214))
    def test_large_regulator(self, D):
        # the brute-force search over u stalled on these fields
        F = build_field(D)
        t, u = pell_plus(F.d_F)
        assert F.eps.norm() == F.unit_norm
        assert F.eps.trace().denominator == 1 and F.eps > 1
        assert F.eps_plus == QuadIrr(t, u, 2, F.d_F)
        assert F.eps_plus == (F.eps if F.unit_norm == 1 else F.eps * F.eps)


class TestPell:
    def test_small(self):
        assert pell_plus(12) == (4, 1)
        assert pell_plus(5) == (3, 1)
        assert pell_plus(24) == (10, 2)

    def test_automorph_fixes_form(self):
        for f in (QuadForm(1, 0, -3), QuadForm(2, 2, -1), QuadForm(3, 6, 1)):
            m = automorph(f)
            assert m.det == 1
            assert f.apply(m) == f
            assert m.a + m.d > 2


class TestReduction:
    def test_reduced_cycle_closes(self):
        f = QuadForm(1, 0, -3)
        cyc = form_cycle(f)
        assert len(cyc) >= 1
        assert all(g.disc() == 12 for g in cyc)

    def test_equivalence_matrix(self):
        f = QuadForm(1, 2, -2)
        g, m = reduce_form(f)
        assert f.apply(m) == g
        m2 = sl2_equivalence(f, g)
        assert f.apply(m2) == g

    def test_inequivalent(self):
        # disc 12: [1,2,-2] principal, [-1,2,2] not
        assert sl2_equivalence(QuadForm(1, 2, -2), QuadForm(-1, 2, 2)) is None

    def test_canonical_rep_stable(self):
        f = QuadForm(1, 2, -2)
        for m in range(-3, 4):
            g = f.apply(type(automorph(f))(1, m, 0, 1))
            assert canonical_rep(g) == canonical_rep(f)


class TestNarrowClassGroup:
    def test_h_plus_12(self):
        G = narrow_class_group(build_field(3))
        assert G.h == 2

    def test_h_plus_5(self):
        G = narrow_class_group(build_field(5))
        assert G.h == 1

    def test_h_plus_24_28(self):
        assert narrow_class_group(build_field(6)).h == 2
        assert narrow_class_group(build_field(7)).h == 2

    def test_identity_first(self):
        for D in (3, 5, 6, 7):
            G = narrow_class_group(build_field(D))
            assert G.identity_index() == 0
            for j in range(G.h):
                assert G.compose(0, j) == j

    def test_abelian_group_axioms(self):
        for D in (3, 6, 10, 15):
            G = narrow_class_group(build_field(D))
            h = G.h
            for i in range(h):
                for j in range(h):
                    assert G.compose(i, j) == G.compose(j, i)
                    for k in range(h):
                        assert (G.compose(G.compose(i, j), k)
                                == G.compose(i, G.compose(j, k)))
            for i in range(h):
                assert G.compose(i, G.inverse(i)) == G.identity_index()

    def test_sqrt_class_squares_to_identity(self):
        for D in (3, 5, 6, 7, 10):
            G = narrow_class_group(build_field(D))
            s = G.class_of_principal_sqrt_dF
            assert G.compose(s, s) == G.identity_index()

    def test_sqrt_class_nontrivial_iff_unit_norm_plus(self):
        for D in (2, 3, 5, 6, 7, 10, 13):
            F = build_field(D)
            G = narrow_class_group(F)
            nontrivial = G.class_of_principal_sqrt_dF != G.identity_index()
            assert nontrivial == (F.unit_norm == 1)


class TestComposition:
    def test_z2_structure_disc12(self):
        G = narrow_class_group(build_field(3))
        assert G.compose(1, 1) == 0

    def test_against_ideal_multiplication(self):
        # every square (a1 = a2), where gcd(a1, a2) alone is the wrong e,
        # and random products; 226 has a cyclic class group of order 8
        rng = random.Random(7)
        for D in (3, 6, 7, 10, 15, 226):
            F = build_field(D)
            d = F.d_F
            G = narrow_class_group(F)
            pairs = [(i, i) for i in range(G.h)]
            pairs += [(rng.randrange(G.h), rng.randrange(G.h))
                      for _ in range(6)]
            for i, j in pairs:
                fi, fj = G.positive_rep(i), G.positive_rep(j)
                b1 = _form_to_basis(d, fi)
                b2 = _form_to_basis(d, fj)
                w1, w2 = multiply_ideals(d, b1, b2)
                k = class_of_ideal(G, (w1, w2))
                assert k == G.compose(i, j)

    def test_composition_well_defined(self):
        G = narrow_class_group(build_field(6))
        f1 = G.positive_rep(1)
        # replace f1 by a translate; class product must not change
        from rqgeo.exact import Mat2
        g1 = f1.apply(Mat2(1, 3, 0, 1))
        assert G.classify(gauss_compose(g1, f1)) == G.compose(1, 1)


def _form_to_basis(d, f):
    # ideal [a, (-b + sqrt(d))/2] attached to a positive form [a,b,c]
    assert f.a > 0
    return (QuadIrr(f.a, 0, 1, d), QuadIrr(-f.b, 1, 2, d))


class TestIdealDictionary:
    def test_standard_basis_form(self):
        d = 12
        w1 = QuadIrr(2, 0, 1, d)
        w2 = QuadIrr(-2, 1, 2, d)   # (-2 + sqrt(12))/2
        f = ideal_to_form(d, w1, w2)
        assert canonical_rep(f) == canonical_rep(QuadForm(2, 2, -1))

    def test_principal_ideal(self):
        for D in (3, 5, 6, 7):
            F = build_field(D)
            G = narrow_class_group(F)
            d = F.d_F
            one = QuadIrr(1, 0, 1, d)
            assert class_of_ideal(G, (one, F.lam)) == G.identity_index()

    def test_principal_form(self):
        G = narrow_class_group(build_field(3))
        assert class_of_ideal(G, QuadForm(1, 0, -3)) == 0

    def test_int_basis_input(self):
        G = narrow_class_group(build_field(3))
        assert class_of_ideal(G, (1, 2)) == 0      # [1, (-2+sqrt12)/2] = O
        assert class_of_ideal(G, (2, 2)) == 1      # the ramified prime over 2

    def test_discriminant_mismatch(self):
        G = narrow_class_group(build_field(3))
        with pytest.raises(ValueError):
            class_of_ideal(G, QuadForm(1, 1, -1))


class TestCharacters:
    def test_counts(self):
        for D in (3, 5, 6, 7, 10):
            G = narrow_class_group(build_field(D))
            assert len(all_characters(G)) == G.h

    def test_exact_homomorphisms(self):
        # every squarefree D < 300: h distinct characters, sorted by their
        # exponents over the group exponent, each additive on the group
        # table in exact exponent arithmetic
        for D in range(2, 300):
            if squarefree_part(D)[1] != 1:
                continue
            G = narrow_class_group(build_field(D))
            chars = all_characters(G)
            assert len(chars) == G.h
            m = math.lcm(*(ch.modulus for ch in chars))
            vecs = [tuple(e * (m // ch.modulus) for e in ch.exponents)
                    for ch in chars]
            assert len(set(vecs)) == G.h and vecs == sorted(vecs)
            for ch in chars:
                e, n = ch.exponents, ch.modulus
                for i in range(G.h):
                    for j in range(G.h):
                        assert (e[i] + e[j] - e[G.compose(i, j)]) % n == 0

    def test_multiplicativity(self):
        for D in (3, 6, 10, 15):
            G = narrow_class_group(build_field(D))
            for ch in all_characters(G):
                for i in range(G.h):
                    for j in range(G.h):
                        lhs = ch(G.compose(i, j))
                        rhs = ch(i) * ch(j)
                        if isinstance(lhs, int) and isinstance(rhs, int):
                            assert lhs == rhs
                        else:
                            assert abs(lhs - rhs) < 1e-12

    def test_odd_d12(self):
        G = narrow_class_group(build_field(3))
        odd = odd_characters(G)
        assert len(odd) == 1
        psi = odd[0]
        assert psi.order == 2
        assert psi(0) == 1 and psi(1) == -1

    def test_odd_d5_empty(self):
        G = narrow_class_group(build_field(5))
        assert odd_characters(G) == []

    def test_odd_d24_d28(self):
        for D in (6, 7):
            G = narrow_class_group(build_field(D))
            assert len(odd_characters(G)) == 1

    def test_trivial_never_odd(self):
        for D in (3, 5, 6, 7, 10):
            G = narrow_class_group(build_field(D))
            for ch in odd_characters(G):
                assert not ch.is_trivial()

    def test_inverse(self):
        G = narrow_class_group(build_field(3))
        for ch in all_characters(G):
            inv = ch.inverse()
            for i in range(G.h):
                v = ch(i) * inv(i)
                assert v == 1 or abs(v - 1) < 1e-12
