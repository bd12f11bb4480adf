"""End-to-end acceptance runs.

Each test prints one PASS line (visible with -v / -s) and covers one of
the headline guarantees: dual-algorithm agreement, genus-zero
proportionality, the level-11 two-dimensional identity, L-value
cross-validation, invariance of the series under every representative
choice, degenerate cases, the archimedean identities, and the coset
keys and their counting law.
"""

import random
import time
from fractions import Fraction

from rqgeo import analytic as an
from rqgeo.exact import Mat2
from rqgeo.field import (
    all_characters,
    build_field,
    narrow_class_group,
    odd_characters,
)
from rqgeo.geodesic import (
    choose_r,
    intersect_winding_cycle,
    intersect_winding_enum,
    twisted_cycle,
)
from rqgeo.hecke import (
    _coset_key,
    hecke_translate,
    pair_with_twisted_cycle,
    right_cosets,
    sigma1,
)
from rqgeo.lvalue import (
    L_value_genus_oracle,
    L_value_zagier,
    partial_zeta_values,
)
from rqgeo.oracles import translate, zeta_F_0_numeric
from rqgeo.series import (
    check_pairing_table,
    diagonal_restriction,
    eta_product_coeffs,
    modularity_check,
)

MATRIX = ((3, 11), (3, 13), (6, 5), (7, 3))
N = 30


def _setup(D):
    F = build_field(D)
    G = narrow_class_group(F)
    return F, G, odd_characters(G)[0]


def test_criterion_1_dual_algorithm_agreement():
    t0 = time.time()
    for D, p in MATRIX:
        F, G, psi = _setup(D)
        cyc = twisted_cycle(F, G, psi, p, choose_r(F, p))
        for n in range(1, N + 1):
            for _, Q in cyc:
                for t in hecke_translate(Q, n):
                    a = intersect_winding_cycle(t)
                    b = intersect_winding_enum(t)
                    assert a == b, (D, p, n, t.form, a, b)
    elapsed = time.time() - t0
    assert elapsed < 300
    print("PASS criterion 1: cycle == enum on every translate, "
          "4 configs x n=1..30 (%.1fs)" % elapsed)


def test_criterion_2_genus_zero_proportionality():
    for D, p in ((6, 5), (7, 3)):
        F, G, psi = _setup(D)
        S = diagonal_restriction(F, G, psi, p)
        a = S.coeffs
        for n in range(1, N + 1):
            for m in range(1, N + 1):
                assert a[n] * sigma1(m, p) == a[m] * sigma1(n, p)
            assert S.constant * Fraction(24, p - 1) * sigma1(n, p) == a[n]
    print("PASS criterion 2: genus-zero proportionality exact for "
          "(6,5) and (7,3), n,m = 1..30")


def test_criterion_3_level_11_two_dimensional():
    F, G, psi = _setup(3)
    S = diagonal_restriction(F, G, psi, 11)
    eta = eta_product_coeffs(N)
    alpha = S.constant * Fraction(24, 10)
    beta = S.coeffs[1] - alpha
    for n in range(2, N + 1):
        assert S.coeffs[n] == alpha * sigma1(n, 11) + beta * eta[n]
    print("PASS criterion 3: (3,11) series solved in the "
          "{Eisenstein, eta-product} basis, exact for n = 2..30")


def test_criterion_4_lvalue_cross_validation():
    expected = {3: Fraction(1, 6), 6: Fraction(1, 3), 7: Fraction(1, 2)}
    for D, want in expected.items():
        F = build_field(D)
        G = narrow_class_group(F)
        for psi in odd_characters(G):
            assert L_value_zagier(G, psi) \
                == L_value_genus_oracle(F, psi) == want
    for D in (3, 5, 6, 7, 10):
        F = build_field(D)
        G = narrow_class_group(F)
        total = float(sum(partial_zeta_values(G)))
        assert abs(total - zeta_F_0_numeric(F.d_F)) < 1e-8
    print("PASS criterion 4: Zagier L-values == genus oracle exactly; "
          "partial-zeta sums match zeta_F(0) within 1e-8")


def test_criterion_5_invariance_and_fault_injection():
    for D, p in ((6, 5), (7, 3)):
        F, G, psi = _setup(D)
        base = diagonal_restriction(F, G, psi, p, N=10)
        r = choose_r(F, p)
        assert diagonal_restriction(F, G, psi, p, N=10, r=r + 2 * p) == base
        assert diagonal_restriction(F, G, psi, p, N=10, r=-r) == base
        assert diagonal_restriction(F, G, psi.inverse(), p, N=10) == base
        check_pairing_table(F, G, p, (r,), 10)

        # representative changes inside the cycle: replace every RM point
        # by a Gamma0(p)-translate (ideal representative and base point)
        cyc = twisted_cycle(F, G, psi, p, r)
        for g in (Mat2(1, 1, 0, 1), Mat2(1, 0, p, 1), Mat2(1, -2, p, 1 - 2 * p)):
            moved = tuple((c, translate(Q, g)) for c, Q in cyc)
            for n in (1, 2, 3, 5, 7):
                assert pair_with_twisted_cycle(moved, n) \
                    == pair_with_twisted_cycle(cyc, n)

        bad = diagonal_restriction(F, G, psi, p, N=10)
        bad.coeffs[6] += 4
        rep = modularity_check(bad)
        assert not rep.passed and rep.first_fail == 6
    print("PASS criterion 5: r-shift, r-swap, representative/base-point "
          "change, coset reshuffle and psi-inverse all bit-identical; "
          "fault injection caught")


def test_criterion_6_degenerate_cases():
    F, G, psi = _setup(3)
    S = diagonal_restriction(F, G, psi, 5, N=10)
    assert S.inert and S.is_zero()
    F5 = build_field(5)
    G5 = narrow_class_group(F5)
    assert odd_characters(G5) == []
    print("PASS criterion 6: inert prime gives the marked zero series; "
          "D=5 admits no totally odd character")


def test_criterion_7_analytic_suite():
    t0 = time.time()
    for a in (0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 50):
        q, c = an.bessel_K(0.5, a), an.bessel_K_half_closed(a)
        assert abs(q - c) / abs(c) < 1e-10
    rng = random.Random(7)

    def nz():
        v = 0
        while abs(v) < 0.2:
            v = rng.uniform(-3, 3)
        return v

    for n in (1, 2, 3):
        for x, s in ((tuple((nz(), 0) for _ in range(n)), 0.3),
                     (tuple((0, nz()) for _ in range(n)), 0.3),
                     (tuple((nz(), nz()) for _ in range(n)), 0.7)):
            a, b = an.J_closed(x, s), an.J_quadrature(x, s)
            assert abs(a - b) < 1e-8 * max(1, abs(a))
    assert abs(an.J_quadrature(((1, 1), (1, -3)), 0)) < 1e-8
    for x in (((1, 1), (1, 1)), ((-1, -1), (-1, -1)), ((1, -1), (1, 1))):
        assert abs(an.phi0_integral(x) - an.phi0_expected(x)) < 1e-6
    taus = (0.3 + 1.2j, -0.7 + 0.8j)
    for s in (0, 0.35, -0.5):
        a = an.Z_inf(taus, 3, 2, s)
        b = an.Z_inf_quadrature(taus, 3, 2, s)
        assert abs(a - b) < 1e-8 * max(1, abs(a))
    elapsed = time.time() - t0
    assert elapsed < 60
    print("PASS criterion 7: Bessel, J, phi0 and Z_inf identities hold "
          "at stated tolerances (%.1fs)" % elapsed)


def test_criterion_8_coset_counts():
    # every det-n matrix (a, b; c, d) with p | c, p prime to a and
    # |a|, |b|, |d| <= 12, |c| <= 4p is keyed to a label of right_cosets
    # whose rep R has R^-1 M in Gamma0(p), and the keys met are exactly
    # the p^e sigma1(m) labels, n = p^e m
    B, K = 12, 4
    for p in (3, 5, 11):
        for n in range(1, 13):
            labels = {(y.a, y.c) for y in right_cosets(n, p)}
            e, m = 0, n
            while m % p == 0:
                e, m = e + 1, m // p
            met = set()
            for a in range(-B, B + 1):
                if a % p == 0:
                    continue
                for c in range(-K * p, K * p + 1, p):
                    for b in range(-B, B + 1):
                        d, rem = divmod(n + b * c, a)
                        if rem or abs(d) > B:
                            continue
                        A, C = key = _coset_key(a, b, c, d, n, p)
                        assert key in labels, (n, p, (a, b, c, d), key)
                        met.add(key)
                        # n R^-1 M = (n/A, 0; -C, A) (a, b; c, d)
                        D = n // A
                        g = (D * a, D * b, A * c - C * a, A * d - C * b)
                        assert all(x % n == 0 for x in g) \
                            and g[2] // n % p == 0, (n, p, (a, b, c, d), key)
            assert met == labels and len(labels) == p ** e * sigma1(m), (n, p)
    print("PASS criterion 8: _coset_key puts every det-n matrix with small "
          "entries in its coset and meets every label, n <= 12")
