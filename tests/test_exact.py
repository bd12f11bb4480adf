import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqgeo.exact import Mat2
from rqgeo.oracles import QuadIrr, mobius

mpmath.mp.dps = 50


def q(u, v, w, D):
    return QuadIrr(u, v, w, D)


def to_mp(x):
    return (x.u + x.v * mpmath.sqrt(x.D)) / x.w


def cmp(x, y):
    return (x > y) - (x < y)


class TestCanonicalization:
    def test_square_radicand_collapses(self):
        x = q(1, 1, 1, 4)
        assert x.is_rational and x.as_fraction() == 3

    def test_square_part_pulled_in(self):
        x = q(0, 1, 1, 12)
        assert x.D == 3 and x.v == 2

    def test_denominator_positive(self):
        x = q(1, 1, -2, 5)
        assert x.w == 2 and x.u == -1 and x.v == -1

    def test_gcd_reduced(self):
        x = q(2, 4, 6, 5)
        assert (x.u, x.v, x.w) == (1, 2, 3)

    def test_structural_equality(self):
        assert q(1, 1, 2, 5) == q(2, 2, 4, 5)
        assert q(3, 0, 1, 5) == 3
        assert hash(q(3, 0, 2, 7)) == hash(Fraction(3, 2))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            q(1, 1, 0, 5)


class TestArithmetic:
    def test_golden_ratio_inverse(self):
        phi = q(1, 1, 2, 5)
        assert phi.inverse() == q(-1, 1, 2, 5)
        assert phi * phi.inverse() == 1

    def test_norm_trace(self):
        x = q(3, 1, 2, 7)
        assert x.norm() == Fraction(2, 4)
        assert x.trace() == 3
        assert x + x.conjugate() == 3

    def test_mixed_rational_ops(self):
        x = q(0, 1, 1, 2)
        assert (x + Fraction(1, 2)) - Fraction(1, 2) == x
        assert 2 * x == x + x
        assert (1 / x) * x == 1

    def test_incompatible_radicands(self):
        with pytest.raises(ValueError):
            q(0, 1, 1, 2) + q(0, 1, 1, 3)

    def test_floor(self):
        assert q(0, 1, 1, 2).floor() == 1
        assert q(0, -1, 1, 2).floor() == -2
        assert q(1, 1, 2, 5).floor() == 1
        assert q(7, 0, 2, 5).floor() == 3
        assert q(-7, 0, 2, 5).floor() == -4

    def test_sign(self):
        assert q(0, 1, 1, 2).sign() == 1
        assert q(3, -2, 1, 2).sign() == 1   # 3 > 2*sqrt(2)
        assert q(-3, 2, 1, 2).sign() == -1
        assert q(2, -1, 1, 5).sign() == -1  # 2 < sqrt(5)
        assert QuadIrr.from_fraction(0).sign() == 0


class TestCmp:
    def test_surd_vs_rational(self):
        # sqrt(12)/2 = sqrt(3) > 1
        assert cmp(q(0, 1, 2, 12), 1) == 1

    def test_close_values(self):
        # sqrt(2) vs 665857/470832 (continued fraction convergent)
        x = q(0, 1, 1, 2)
        r = Fraction(665857, 470832)
        assert cmp(x, r) == -1
        assert cmp(x, Fraction(1393, 985)) == 1


class TestMobius:
    def test_rationalization(self):
        # (2*sqrt(3)+1)/(sqrt(3)+1) = (5 - sqrt(3))/2
        m = Mat2(2, 1, 1, 1)
        out = mobius(m, q(0, 1, 1, 3))
        assert out == q(5, -1, 2, 3)
        assert abs(float(out) - (2 * math.sqrt(3) + 1) / (math.sqrt(3) + 1)) < 1e-12

    def test_irrational_pole(self):
        # x = sqrt(2), matrix with c*x + d = 0 impossible for integer c, d
        m = Mat2(0, 1, 1, 0)
        assert mobius(m, q(0, 1, 1, 2)) == q(0, 1, 2, 2)


mats = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9),
    st.integers(-9, 9), st.integers(-9, 9),
).filter(lambda t: t[0] * t[3] - t[1] * t[2] != 0).map(lambda t: Mat2(*t))

quads = st.builds(
    q,
    st.integers(-30, 30), st.integers(-30, 30),
    st.integers(-30, 30).filter(bool),
    st.sampled_from([2, 3, 5, 7, 11, 13, 15]),
)

# Moebius images are taken of irrational points only
surds = quads.filter(lambda x: not x.is_rational)


@settings(max_examples=200)
@given(quads, quads)
def test_cmp_matches_mpmath(x, y):
    if x.D != y.D and x.v and y.v:
        y = QuadIrr(y.u, y.v, y.w, x.D)
    got = cmp(x, y)
    a, b = to_mp(x), to_mp(y)
    if abs(a - b) > mpmath.mpf("1e-40"):
        assert got == (1 if a > b else -1)
    else:
        assert x == y and got == 0


@settings(max_examples=200)
@given(mats, mats, surds)
def test_mobius_composition(m1, m2, x):
    assert mobius(m1 * m2, x) == mobius(m1, mobius(m2, x))


@settings(max_examples=200)
@given(mats, surds)
def test_mobius_matches_mpmath(m, x):
    got = mobius(m, x)
    num = m.a * to_mp(x) + m.b
    den = m.c * to_mp(x) + m.d
    assert abs(to_mp(got) - num / den) < mpmath.mpf("1e-30")


@settings(max_examples=200)
@given(mats, surds)
def test_conjugation_equivariance(m, x):
    assert mobius(m, x).conjugate() == mobius(m, x.conjugate())


@settings(max_examples=200)
@given(quads)
def test_conjugate_involution(x):
    assert x.conjugate().conjugate() == x
    n = x.norm()
    assert n == (x * x.conjugate()).as_fraction()


@settings(max_examples=200)
@given(quads, quads)
def test_field_axioms(x, y):
    if x.D != y.D and x.v and y.v:
        y = QuadIrr(y.u, y.v, y.w, x.D)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if y.sign() != 0:
        assert (x / y) * y == x


@settings(max_examples=200)
@given(quads)
def test_floor_bracket(x):
    n = x.floor()
    assert cmp(x, n) >= 0
    assert cmp(x, n + 1) < 0
