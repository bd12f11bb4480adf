import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqgeo.exact import Mat2, QuadIrr
from rqgeo.field import QuadForm, automorph, build_field, narrow_class_group, odd_characters
from rqgeo.geodesic import (
    _norm_pt,
    _straddle,
    ClosedGeodesic,
    InertPrime,
    RChoice,
    choose_r,
    gamma0_automorph,
    intersect_winding_cycle,
    intersect_winding_enum,
    rm_point,
    rm_point_pair,
    twisted_cycle,
)
from rqgeo.hecke import hecke_translate
from rqgeo.oracles import gamma0_equivalent

CONFIGS = ((3, 11), (3, 13), (6, 5), (7, 3))


def _setup(D, p):
    F = build_field(D)
    G = narrow_class_group(F)
    psi = odd_characters(G)[0]
    rc = choose_r(F, p)
    return F, G, psi, rc


def _capped_power_search(form, p):
    """The least power of the automorph in Gamma0(p), found by trying
    A, A^2, ... up to 3(p+2) (the orbit of infinity has at most p+1
    points, so the cap is never reached)."""
    A = automorph(form)
    M = A
    for _ in range(3 * (p + 2)):
        if M.c % p == 0:
            return M
        M = M * A
    raise AssertionError("automorph has no power in Gamma0(p)")


def _random_form(rng):
    """A random primitive form of positive nonsquare discriminant."""
    while True:
        f = QuadForm(rng.randrange(-30, 31), rng.randrange(-30, 31),
                     rng.randrange(-30, 31))
        disc = f.disc()
        if disc > 0 and math.isqrt(disc) ** 2 != disc and f.content() == 1:
            return f


class TestChooseR:
    def test_values(self):
        assert choose_r(build_field(3), 11).r == 10
        assert choose_r(build_field(3), 13).r == 8
        assert choose_r(build_field(6), 5).r == 8
        assert choose_r(build_field(7), 3).r == 8

    def test_congruence_and_minimality(self):
        for D, p in CONFIGS:
            F = build_field(D)
            rc = choose_r(F, p)
            d = F.d_F
            assert (rc.r * rc.r - d) % (4 * p) == 0
            assert rc.r * rc.r > d
            for s in range(1, rc.r):
                assert (s * s - d) % (4 * p) != 0 or s * s <= d
            # N0 = 2 N(x) with x = (-r + sqrt(d))/2
            x = QuadIrr(-rc.r, 1, 2, d)
            assert rc.N0 == 2 * x.norm() == Fraction(rc.r ** 2 - d, 2)

    def test_inert(self):
        with pytest.raises(InertPrime):
            choose_r(build_field(3), 5)

    def test_ramified_rejected(self):
        with pytest.raises(ValueError):
            choose_r(build_field(3), 3)
        # also with a root that is valid mod 4p: 6^2 = 24 mod 12
        with pytest.raises(ValueError, match="ramifies"):
            choose_r(build_field(6), 3, r=6)

    def test_explicit_r(self):
        F = build_field(6)
        assert choose_r(F, 5, r=8) == RChoice(8, 20)
        assert choose_r(F, 5, r=-8) == RChoice(-8, 20)
        assert choose_r(F, 5, r=18) == RChoice(18, 150)
        for r in (7, 2, -2):
            with pytest.raises(ValueError, match="invalid square root"):
                choose_r(F, 5, r=r)
        with pytest.raises(InertPrime):
            choose_r(build_field(3), 5, r=8)

    def test_composite_rejected(self):
        # rejected before the residue test (which 28 passes mod 9)
        for p in (9, 25):
            with pytest.raises(ValueError, match="odd prime"):
                choose_r(build_field(7), p)


SQRT2 = QuadIrr(0, 1, 1, 2)


class TestStraddle:
    def test_table(self):
        one_plus, one_minus = QuadIrr(1, 1, 1, 2), QuadIrr(1, -1, 1, 2)
        assert _straddle(SQRT2, -SQRT2) == 1
        assert _straddle(-SQRT2, SQRT2) == -1
        assert _straddle(SQRT2, one_plus) == 0
        assert _straddle(-one_plus, one_minus) == 0

    def test_endpoint_on_axis(self):
        with pytest.raises(AssertionError, match="endpoint at 0"):
            _straddle(QuadIrr(0, 0, 1, 2), SQRT2)

    def test_irrational_endpoints(self):
        assert _straddle(SQRT2, -SQRT2) == 1
        assert _straddle(-SQRT2, SQRT2) == -1
        # reversing the geodesic negates the intersection
        rng = random.Random(5)
        for _ in range(50):
            a, b = (QuadIrr(rng.randrange(-9, 10), rng.choice((-1, 1)),
                            rng.randrange(1, 5), rng.choice((2, 3, 5, 6)))
                    for _ in range(2))
            assert _straddle(a, b) == -_straddle(b, a)


class TestRmPoint:
    def test_rm_point_constraints(self):
        for D, p in CONFIGS:
            F, G, psi, rc = _setup(D, p)
            for cls in range(G.h):
                for sign in (1, -1):
                    Q = rm_point(F, G, cls, p, rc, sign)
                    assert Q.form.a % p == 0
                    assert (Q.form.b + sign * rc.r) % (2 * p) == 0
                    assert Q.form.disc() == F.d_F
                    assert G.classify(Q.form) == cls

    def test_explicit_large_r(self):
        # the other square root class mod 2p for d_F = 12, p = 13
        F = build_field(3)
        G = narrow_class_group(F)
        d = F.d_F
        r = 18
        assert (r * r - d) % (4 * 13) == 0
        rc = choose_r(F, 13, r=r)
        assert rc == RChoice(r, (r * r - d) // 2)
        target = QuadForm(78, -18, 1)
        cls = G.classify(target)
        Q = rm_point(F, G, cls, 13, rc, 1)
        assert gamma0_equivalent(Q.form, target, 13)

    def test_pair_signs(self):
        F, G, psi, rc = _setup(6, 5)
        plus, minus = rm_point_pair(F, G, 0, 5, rc)
        assert (plus.form.b + rc.r) % (2 * 5) == 0
        assert (minus.form.b - rc.r) % (2 * 5) == 0


class TestClosedGeodesic:
    def test_stabilizer_fixes_endpoints(self):
        for D, p in CONFIGS:
            F, G, psi, rc = _setup(D, p)
            Q = rm_point(F, G, 0, p, rc)
            g = Q.gamma
            assert g.det == 1 and g.c % p == 0
            assert g.a + g.d > 2

    def test_gamma0_automorph_minimal(self):
        f = QuadForm(10, -8, 1)
        m = gamma0_automorph(f, 5)
        assert m.c % 5 == 0
        assert f.apply(m) == f

    def test_gamma0_automorph_equals_power_search(self):
        rng = random.Random(7)
        for p in (3, 5, 7, 11, 13):
            for _ in range(40):
                f = _random_form(rng)
                assert gamma0_automorph(f, p) == _capped_power_search(f, p)

    def test_orientation_reversal(self):
        for D, p in CONFIGS:
            F, G, psi, rc = _setup(D, p)
            Q = rm_point(F, G, 0, p, rc)
            R = Q.reversed()
            assert R.form == QuadForm(*(-e for e in Q.form))
            assert R.w == Q.wsig and R.wsig == Q.w
            assert R.gamma * Q.gamma == Mat2.identity()
            assert R.reversed().form == Q.form

    def test_slots(self):
        assert ClosedGeodesic.__slots__ == ("form", "p")
        Q = ClosedGeodesic(QuadForm(20, -16, 2), 5)
        assert Q.form == QuadForm(10, -8, 1)

    def test_square_disc_rejected(self):
        with pytest.raises(ValueError):
            ClosedGeodesic(QuadForm(1, 3, 2), 5)


class TestGamma0Equivalence:
    def test_reflexive_on_translates(self):
        rng = random.Random(3)
        f = QuadForm(10, -8, 1)
        for _ in range(8):
            j = rng.randrange(-4, 5)
            k = rng.randrange(-2, 3)
            g = Mat2(1, j, 0, 1) * Mat2(1, 0, 5 * k, 1)
            assert gamma0_equivalent(f, f.apply(g), 5)

    def test_sl2_but_not_gamma0(self):
        # [1,2,-2] and its S-translate are SL2- but not Gamma0(5)-equivalent
        f = QuadForm(1, 2, -2)
        g = f.apply(Mat2(0, -1, 1, 0))
        assert not gamma0_equivalent(f, g, 5)
        assert gamma0_equivalent(f, g, 1)


class TestIntersection:
    def test_cycle_equals_enum_base_points(self):
        for D, p in CONFIGS:
            F, G, psi, rc = _setup(D, p)
            T = twisted_cycle(F, G, psi, p, rc)
            for _, Q in T:
                assert intersect_winding_cycle(Q) == intersect_winding_enum(Q)

    def test_known_values(self):
        # per-geodesic intersection numbers at the base level
        F, G, psi, rc = _setup(6, 5)
        T = twisted_cycle(F, G, psi, 5, rc)
        vals = [intersect_winding_cycle(Q) for _, Q in T]
        coeffs = [c for c, _ in T]
        assert sum(c * v for c, v in zip(coeffs, vals)) == -4

    def test_orientation_flip_negates(self):
        for D, p in ((6, 5), (7, 3)):
            F, G, psi, rc = _setup(D, p)
            Q = rm_point(F, G, 0, p, rc)
            assert intersect_winding_cycle(Q.reversed()) == -intersect_winding_cycle(Q)
            assert intersect_winding_enum(Q.reversed()) == -intersect_winding_enum(Q)

    def test_gamma0_translate_invariance(self):
        rng = random.Random(11)
        F, G, psi, rc = _setup(6, 5)
        Q = rm_point(F, G, 1, 5, rc)
        base = intersect_winding_cycle(Q)
        for _ in range(6):
            g = Mat2(1, rng.randrange(-3, 4), 0, 1) * Mat2(1, 0, 5 * rng.randrange(-2, 3), 1)
            R = Q.translate(g)
            assert intersect_winding_cycle(R) == base
            assert intersect_winding_enum(R) == base

    def test_infinity_has_one_key(self):
        # the walk compares edges as sets of normalised points, so every
        # (x, 0) must be the same point
        assert _norm_pt((-3, 0)) == _norm_pt((-1, 0)) == (1, 0)
        assert _norm_pt((4, -6)) == (-2, 3)


@lru_cache(maxsize=None)
def _cycle_terms(D, p):
    F, G, psi, rc = _setup(D, p)
    return twisted_cycle(F, G, psi, p, rc)


@settings(max_examples=100, deadline=None)
@given(config=st.sampled_from(CONFIGS + ((15, 7), (21, 5), (33, 17), (7, 19))),
       n=st.integers(1, 12), pick=st.integers(0, 10 ** 6),
       j=st.integers(-3, 3), k=st.integers(-2, 2))
def test_river_walk_equals_farey_walk(config, n, pick, j, k):
    # a random translate of a random term, moved by a random Gamma0(p)
    # element: the river walk and the Farey walk must agree
    D, p = config
    terms = _cycle_terms(D, p)
    _, Q = terms[pick % len(terms)]
    translates = hecke_translate(Q, n)
    t = translates[(pick // len(terms)) % len(translates)]
    t = t.translate(Mat2(1, j, 0, 1) * Mat2(1, 0, p * k, 1))
    assert intersect_winding_cycle(t) == intersect_winding_enum(t)


class TestTwistedCycle:
    def test_structure_d12(self):
        F, G, psi, rc = _setup(3, 13)
        T = twisted_cycle(F, G, psi, 13, rc)
        assert len(T) == 2 * G.h == 4
        assert sorted(c for c, _ in T) == [-1, -1, 1, 1]

    def test_rejects_even_character(self):
        F = build_field(3)
        G = narrow_class_group(F)
        rc = choose_r(F, 13)
        from rqgeo.field import all_characters
        triv = [c for c in all_characters(G) if c.is_trivial()][0]
        with pytest.raises(ValueError):
            twisted_cycle(F, G, triv, 13, rc)
