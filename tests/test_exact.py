import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqgeo.exact import (
    Mat2,
    divisor_sums,
    divisors,
    factor,
    is_prime,
    squarefree_part,
)
from rqgeo.field import QuadForm, build_field, narrow_class_group
from rqgeo.oracles import QuadIrr, mobius

mpmath.mp.dps = 50

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


class TestMat2:
    def test_powers(self):
        # non-negative powers only: a negative exponent raises, where the
        # square-and-multiply loop would silently return the identity
        m = Mat2(2, 1, 1, 1)
        assert m ** 0 == Mat2(1, 0, 0, 1) and m ** 5 == m * m * m * m * m
        with pytest.raises(AssertionError, match="negative power"):
            m ** -1


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


class TestIntegerKernel:
    def test_small_n_match_brute_force(self):
        primes = [t for t in range(2, 3001) if all(t % k for k in range(2, t))]
        for n in range(1, 3001):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
            expected = []
            for t in primes:
                e = 0
                while n % t ** (e + 1) == 0:
                    e += 1
                if e:
                    expected.append((t, e))
            assert list(factor(n)) == expected, n
            f = max(f for f in range(1, math.isqrt(n) + 1) if n % (f * f) == 0)
            assert squarefree_part(n) == (n // (f * f), f), n
            assert is_prime(n) == (n in primes), n

    def test_two_large_primes(self):
        p1, p2, p3 = 1000003, 1000033, 1000037
        assert is_prime(p1) and is_prime(p2) and is_prime(p3)
        for a, b in ((p1, p2), (p2, p3), (p1, p1)):
            n = a * b
            assert list(factor(n)) == ([(a, 2)] if a == b else [(a, 1), (b, 1)])
            assert divisors(n) == sorted({1, a, b, n})
            assert squarefree_part(n) == ((1, a) if a == b else (n, 1))
            assert not is_prime(n)

    def test_is_prime_stops_at_least_factor(self):
        # factoring 3 (2^61 - 1) completely would take ~10^9 divisions
        start = time.perf_counter()
        assert not is_prime(3 * (2 ** 61 - 1))
        assert time.perf_counter() - start < 1

    def test_is_prime_matches_least_factor(self):
        for n in range(0, 10 ** 5 + 1):
            assert is_prime(n) == (n > 1 and next(factor(n)) == (n, 1)), n

    def test_strong_pseudoprimes(self):
        # 318665857834031151167461 passes the bases up to 37 and only base
        # 41 rejects it; 3825123056546413051 passes the bases up to 31
        assert not is_prime(318665857834031151167461)
        assert not is_prime(3825123056546413051)
        assert is_prime(2 ** 61 - 1)

    def test_is_prime_raises_at_the_bound(self):
        # the bases up to 41 decide primality only below 3.3e24
        for n in (3317044064679887385961981, 2 ** 89 - 1):
            with pytest.raises(ValueError, match="not decided"):
                is_prime(n)

    def test_rmpoints_for_large_prime(self):
        # p = 2^61 - 1 is prime and inert in Q(sqrt 6); trial division up
        # to sqrt(p) takes ~10^9 steps
        p = 2 ** 61 - 1
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "rqgeo.cli", "rmpoints", "--D", "6",
             "--p", str(p)],
            env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr[-2000:]
        rep = json.loads(proc.stdout)
        assert rep["p"] == p and rep["inert"] is True

    def test_rmpoints_for_large_r(self):
        # each RM candidate b factors (b^2 - d_F)/4 ~ 2.5e15 once; dividing
        # out the primes found keeps that far below sqrt(2.5e15) divisions
        D, p, r = 6, 5, 100000008
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "rqgeo.cli", "rmpoints", "--D", str(D),
             "--p", str(p), "--r", str(r)],
            env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr[-2000:]
        data = json.loads(proc.stdout)["rmpoints"]
        assert data["r"] == r
        F = build_field(D)
        G = narrow_class_group(F)
        assert [c["class_index"] for c in data["classes"]] == list(range(G.h))
        for c in data["classes"]:
            for key, s in (("form_plus", r), ("form_minus", -r)):
                f = QuadForm(*c[key])
                assert f.a % p == 0 and (f.b + s) % (2 * p) == 0
                assert f.disc() == F.d_F
                assert G.classify(f) == c["class_index"]


def test_divisor_sums_against_divisors():
    for p in (None, 2, 3, 5, 11):
        for k in (0, 1, 2):
            sums = divisor_sums(60, k, p)
            assert sums[0] == 0 and len(sums) == 61
            for n in range(1, 61):
                assert sums[n] == sum(d ** k for d in divisors(n)
                                      if p is None or d % p), (p, k, n)
