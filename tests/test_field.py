import math
import random

import pytest

from rqgeo.exact import Mat2, squarefree_part
import rqgeo.field
import rqgeo.lvalue
from rqgeo.field import (
    QuadForm,
    _is_reduced,
    _reduced_forms,
    all_characters,
    automorph,
    build_field,
    class_of_ideal,
    form_cycle,
    gauss_compose,
    narrow_class_group,
    odd_characters,
    pell_plus,
    reduce_form,
)
from rqgeo.lvalue import L_value_zagier
from rqgeo.oracles import (
    QuadIrr,
    canonical_rep,
    ideal_to_form,
    multiply_ideals,
    sl2_equivalence,
)


def _units(F):
    """The fundamental and the totally positive unit of F as oracle
    quadratic irrationals, from the integer pairs F.unit and pell_plus."""
    t, u = pell_plus(F.d_F)
    return QuadIrr(*F.unit, 2, F.d_F), QuadIrr(t, u, 2, F.d_F)


class TestBuildField:
    def test_discriminants(self):
        assert build_field(3).d_F == 12
        assert build_field(5).d_F == 5
        assert build_field(6).d_F == 24
        assert build_field(7).d_F == 28

    def test_unit_d3(self):
        F = build_field(3)
        eps, eps_plus = _units(F)
        assert F.unit == (4, 1)
        assert eps == QuadIrr(2, 1, 1, 3)
        assert F.unit_norm == 1
        assert eps_plus == eps

    def test_unit_d5(self):
        F = build_field(5)
        eps, eps_plus = _units(F)
        assert F.unit == (1, 1)
        assert eps == QuadIrr(1, 1, 2, 5)
        assert F.unit_norm == -1
        assert eps_plus == eps * eps
        assert eps_plus.norm() == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_field(12)
        with pytest.raises(ValueError):
            build_field(1)

    def test_eps_plus_totally_positive(self):
        for D in (2, 3, 5, 6, 7, 10, 11, 13):
            e = _units(build_field(D))[1]
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
            assert F.unit == (t, u)
            assert F.unit_norm == sgn

    @pytest.mark.parametrize("D", (139, 151, 163, 166, 199, 211, 214))
    def test_large_regulator(self, D):
        # the brute-force search over u stalled on these fields
        F = build_field(D)
        eps, eps_plus = _units(F)
        assert eps.norm() == F.unit_norm
        assert eps.trace().denominator == 1 and eps > 1
        assert eps_plus.norm() == 1
        assert eps_plus == (eps if F.unit_norm == 1 else eps * eps)


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
        forms, deltas = form_cycle(f)
        assert len(forms) == len(deltas) >= 1
        assert all(g.disc() == 12 for g in forms)
        # deltas[i] steps forms[i] to the next form, the last one back
        # to the first, for both orientations of the principal form
        for D in range(2, 200):
            if squarefree_part(D)[1] != 1:
                continue
            d = build_field(D).d_F
            b0 = d % 2
            for s in (1, -1):
                forms, deltas = form_cycle(
                    QuadForm(s, b0, s * (b0 * b0 - d) // 4))
                assert len(forms) == len(deltas) == len(set(forms))
                assert all(_is_reduced(g, math.isqrt(d)) for g in forms)
                for i, (g, delta) in enumerate(zip(forms, deltas)):
                    nxt = forms[(i + 1) % len(forms)]
                    assert g.apply(Mat2(0, -1, 1, delta)) == nxt, (D, i)
        # the isqrt window of _is_reduced against the squared inequalities
        # |sqrt(D) - 2|a|| < b < sqrt(D) on every form with nonsquare
        # D > 0 and |a|, |b|, |c| <= 40
        count = 0
        for a in range(-40, 41):
            for b in range(-40, 41):
                for c in range(-40, 41):
                    D = b * b - 4 * a * c
                    s = math.isqrt(max(D, 0))
                    if D <= 0 or s * s == D:
                        continue
                    t = 2 * abs(a) - b
                    squared = (0 < b and b * b < D and (t < 0 or t * t < D)
                               and D < (2 * abs(a) + b) ** 2)
                    assert _is_reduced((a, b, c), s) == squared, (a, b, c)
                    count += 1
        assert count == 297772

    def test_broken_reduction_raises(self, monkeypatch):
        # with the reduction window broken, the walk from a form that is
        # not reduced never returns to it: form_cycle stops at its bound
        # of 2 s^2 steps instead of hanging
        monkeypatch.setattr(rqgeo.field, "_is_reduced",
                            lambda f, s: s - f[1] <= 2 * abs(f[0]))
        with pytest.raises(RuntimeError, match="did not close"):
            form_cycle(QuadForm(1, 0, -3))

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

    def test_reduced_forms_against_brute_force(self):
        # _reduced_forms builds a form only for a divisor a inside the
        # reduction window; the brute force tests every a with
        # 0 < a <= s against divisibility, content and _is_reduced.  The
        # orders m^2 d_F with m > 1 have imprimitive forms to refuse
        def brute(d):
            s = math.isqrt(d)
            out = []
            for b in range(2 - d % 2, s + 1, 2):
                for a in range(1, s + 1):
                    if (b * b - d) % (4 * a):
                        continue
                    for f in (QuadForm(a, b, (b * b - d) // (4 * a)),
                              QuadForm(-a, b, (d - b * b) // (4 * a))):
                        if f.content() == 1 and _is_reduced(f, s):
                            out.append(f)
            return out

        ds = [m * m * build_field(D).d_F for D in range(2, 300)
              if squarefree_part(D)[1] == 1 for m in range(1, 6)]
        for d in ds + [build_field(1000003).d_F]:
            assert _reduced_forms(d) == brute(d), d


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

    def test_cycles_start_at_least_form(self):
        # each class is its cycle from its least reduced form, with the
        # delta of every step; the positive rep is the first positive form
        assert narrow_class_group(build_field(10)).positive_rep(1) == (3, 4, -2)
        for D in range(2, 300):
            if squarefree_part(D)[1] != 1:
                continue
            G = narrow_class_group(build_field(D))
            for i, (forms, deltas) in enumerate(G.cycles):
                assert forms[0] == min(forms)
                assert G.positive_rep(i) == next(f for f in forms if f.a > 0)
                for k, delta in enumerate(deltas):
                    nxt = forms[(k + 1) % len(forms)]
                    assert forms[k].apply(Mat2(0, -1, 1, delta)) == nxt

    def test_identity_first(self):
        for D in (3, 5, 6, 7):
            F = build_field(D)
            G = narrow_class_group(F)
            b0 = F.d_F % 2
            assert G.classify(QuadForm(1, b0, (b0 - F.d_F) // 4)) == 0
            for j in range(G.h):
                assert G.compose(0, j) == j

    def test_abelian_group_axioms(self):
        # 34 and 226 have classes of order 4 and 8, not their own inverses
        for D in (3, 6, 10, 15, 34, 226):
            G = narrow_class_group(build_field(D))
            h = G.h
            for i in range(h):
                for j in range(h):
                    assert G.compose(i, j) == G.compose(j, i)
                    for k in range(h):
                        assert (G.compose(G.compose(i, j), k)
                                == G.compose(i, G.compose(j, k)))
            for i in range(h):
                assert G.compose(i, G.inverse(i)) == 0

    def test_table_against_both_orders(self):
        # compose reads the positive reps in one order; every pair against
        # the composition in both orders, on the fields with h+ >= 4
        count = 0
        for D in range(2, 1000):
            if squarefree_part(D)[1] != 1:
                continue
            G = narrow_class_group(build_field(D))
            if G.h < 4:
                continue
            reps = [G.positive_rep(i) for i in range(G.h)]
            for i, fi in enumerate(reps):
                for j, fj in enumerate(reps):
                    assert G.compose(i, j) == G.classify(gauss_compose(fi, fj))
                    assert G.compose(i, j) == G.classify(gauss_compose(fj, fi))
            count += 1
        assert count == 307

    @pytest.mark.parametrize("D", (16899, 99999998))
    def test_no_table(self, monkeypatch, D):
        # the group and its odd characters make at most 4 h+ compositions:
        # sigma one per class, and each extension step its cosets once
        # for all characters.  A table would take h+(h+ + 1)/2
        calls = []
        compose = rqgeo.field.gauss_compose
        monkeypatch.setattr(rqgeo.field, "gauss_compose",
                            lambda f, g: calls.append(1) or compose(f, g))
        G = narrow_class_group(build_field(D))
        assert G.h >= 64 and odd_characters(G)
        assert len(calls) <= 4 * G.h
        assert not hasattr(G, "group_table")

    def test_no_step_matrix_or_zeta_tuple(self, monkeypatch):
        # the class group, classify and form_cycle reduce without
        # building a step matrix, and L_value_zagier sums the deltas
        # without the tuple of partial zeta values; reduce_form still
        # returns the matrix
        F = build_field(210)
        calls = []
        steps = rqgeo.field._steps
        monkeypatch.setattr(rqgeo.field, "_steps",
                            lambda deltas: calls.append(1) or steps(deltas))

        def no_zeta(G):
            raise AssertionError("L_value_zagier built the partial zeta values")
        monkeypatch.setattr(rqgeo.lvalue, "partial_zeta_values", no_zeta)
        G = narrow_class_group(F)
        f = QuadForm(1, 0, -210)
        assert G.classify(f) == 0 and G.h == 8
        assert len(form_cycle(f)[0]) > 1
        assert [L_value_zagier(G, psi) for psi in odd_characters(G)]
        assert calls == []
        g, m = reduce_form(f)
        assert calls == [1]
        assert f.apply(m) == g and _is_reduced(g, math.isqrt(840)) and f != g

    def test_sqrt_class_squares_to_identity(self):
        for D in (3, 5, 6, 7, 10):
            G = narrow_class_group(build_field(D))
            s = G.class_of_principal_sqrt_dF
            assert G.compose(s, s) == 0

    def test_sigma_is_the_class_of_minus_f(self):
        # sigma(c) = c^-1 s, from compose and inverse, is the class of -f
        # for f in c; 34, 79 and 226 have classes of order 4, 3 and 8
        for D in (3, 6, 34, 79, 210, 226, 16899):
            G = narrow_class_group(build_field(D))
            for c in range(G.h):
                a, b, cc = G.positive_rep(c)
                assert G.sigma(c) == G.classify(QuadForm(-a, -b, -cc)), (D, c)

    def test_sqrt_class_nontrivial_iff_unit_norm_plus(self):
        for D in (2, 3, 5, 6, 7, 10, 13):
            F = build_field(D)
            G = narrow_class_group(F)
            nontrivial = G.class_of_principal_sqrt_dF != 0
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
                k = G.classify(ideal_to_form(d, w1, w2))
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
            f = ideal_to_form(d, one, QuadIrr(d, 1, 2, d))
            assert G.classify(f) == 0

    def test_principal_form(self):
        G = narrow_class_group(build_field(3))
        assert G.classify(QuadForm(1, 0, -3)) == 0

    def test_int_basis_input(self):
        G = narrow_class_group(build_field(3))
        assert class_of_ideal(G, (1, 2)) == 0      # [1, (-2+sqrt12)/2] = O
        assert class_of_ideal(G, (2, 2)) == 1      # the ramified prime over 2

    def test_discriminant_mismatch(self):
        G = narrow_class_group(build_field(3))
        with pytest.raises(ValueError):
            G.classify(QuadForm(1, 1, -1))


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
            m = math.lcm(*(ch.order for ch in chars))
            vecs = [tuple(e * (m // ch.order) for e in ch.exponents)
                    for ch in chars]
            assert len(set(vecs)) == G.h and vecs == sorted(vecs)
            for ch in chars:
                e, n = ch.exponents, ch.order
                for i in range(G.h):
                    for j in range(G.h):
                        assert (e[i] + e[j] - e[G.compose(i, j)]) % n == 0

    def test_multiplicativity(self):
        for D in (3, 6, 10, 15):
            G = narrow_class_group(build_field(D))
            for ch in all_characters(G):
                for i in range(G.h):
                    for j in range(G.h):
                        assert ch(G.compose(i, j)) == ch(i) * ch(j)

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
                assert ch(i) * inv(i) == 1
                assert ch.trace(i) == inv.trace(i)

    def test_trace_table(self):
        # trace(i) = psi(i) + conj(psi(i)) = 2 cos(2 pi e / m), exact for
        # m in {1, 2, 3, 4, 6}; psi(i) itself is exact only where real.
        # D = 505 has odd characters of order 8 only
        orders = set()
        for D in (*range(2, 300), 505):
            if squarefree_part(D)[1] != 1:
                continue
            G = narrow_class_group(build_field(D))
            for ch in all_characters(G):
                m = ch.order
                orders.add(m)
                if m not in (1, 2, 3, 4, 6):
                    with pytest.raises(ValueError, match="order %d are not "
                                       "supported" % m):
                        ch.trace(0)
                    continue
                for i, e in enumerate(ch.exponents):
                    want = round(2 * math.cos(2 * math.pi * e / m))
                    assert ch.trace(i) == want, (D, ch, i)
                    if 2 * e % m == 0:
                        assert ch(i) == want // 2
                    else:
                        with pytest.raises(ValueError, match="not real"):
                            ch(i)
        assert {1, 2, 3, 4, 6, 8} <= orders
