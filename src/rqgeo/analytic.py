"""Numeric verification of the archimedean identities.

The K-Bessel integral, the local integrals J at the infinite places with
their three closed forms, the local theta integral phi0 (an intersection
sign), and the archimedean zeta factor Z_inf.  All quadratures use
mpmath's tanh-sinh integration; the closed forms act as oracles.
"""

from __future__ import annotations

import random

import mpmath as mp

from .exact import DomainError

__all__ = [
    "DomainError",
    "bessel_K",
    "bessel_K_half_closed",
    "J_closed",
    "J_quadrature",
    "phi0_integral",
    "phi0_expected",
    "lambda_fn",
    "Z_inf",
    "Z_inf_quadrature",
    "identity_checks",
]

BESSEL_DPS = 30
QUADRATURE_DPS = 25


def bessel_K(s, alpha):
    """K_s(alpha) = int_0^inf exp(-alpha(b + 1/b)/2) b^s db/b by direct
    quadrature (twice the standard modified Bessel function)."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    with mp.workdps(BESSEL_DPS):
        a, sc = mp.mpf(alpha), mp.mpmathify(s)
        # substitute b = e^u; truncate where the cosh factor is below
        # target precision (the integrand decays doubly exponentially)
        P = mp.ln(10) * (BESSEL_DPS + 15)
        U = mp.acosh(mp.mpf(2) + P / a)
        while a * mp.cosh(U) - abs(mp.re(sc)) * U < P:
            U += 1
        val = mp.quad(lambda u: mp.exp(-a * mp.cosh(u) + sc * u), [-U, 0, U])
        return complex(val) if mp.im(val) else float(mp.re(val))


def bessel_K_half_closed(alpha):
    """K_{1/2}(alpha) = sqrt(2 pi / alpha) e^{-alpha}."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return float(mp.sqrt(2 * mp.pi / alpha) * mp.exp(-alpha))


def _sgn(x):
    return (x > 0) - (x < 0)


def _classify(x):
    """One of "l1", "l2", "mixed" or "Mx" for the archimedean vector x,
    a tuple of (x_sigma, x'_sigma) pairs."""
    firsts = [a for a, _ in x]
    seconds = [b for _, b in x]
    if all(a != 0 for a in firsts) and all(b == 0 for b in seconds):
        return "l1"
    if all(a == 0 for a in firsts) and all(b != 0 for b in seconds):
        return "l2"
    if all(a * b != 0 for a, b in x):
        return "Mx"
    return "mixed"


def J_closed(x, s):
    """Closed form of J_inf(x, s) in the three evaluated cases.

    l1 (second coordinates zero, Re s < 1), l2 (first coordinates zero,
    Re s > -1), and the split case where every place has both
    coordinates nonzero (products of K-Bessel values, any s).
    """
    kind = _classify(x)
    N = len(x)
    sc = mp.mpmathify(s)
    if kind == "l1":
        if mp.re(sc) >= 1:
            raise DomainError("l1 case needs Re s < 1")
        Nx = mp.mpf(1)
        for a, _ in x:
            Nx *= a
        val = (Nx / abs(Nx) ** (1 - sc)) * mp.gamma((1 - sc) / 2) ** N \
            * mp.pi ** (-N * (1 - sc) / 2)
    elif kind == "l2":
        if mp.re(sc) <= -1:
            raise DomainError("l2 case needs Re s > -1")
        Nx = mp.mpf(1)
        for _, b in x:
            Nx *= b
        val = (Nx / abs(Nx) ** (1 + sc)) * mp.gamma((1 + sc) / 2) ** N \
            * mp.pi ** (-N * (1 + sc) / 2)
    elif kind == "Mx":
        val = mp.mpf(1)
        for a, b in x:
            alpha = 2 * mp.pi * abs(mp.mpf(a) * b)
            ka = mp.mpmathify(bessel_K((1 + sc) / 2, alpha))
            kb = mp.mpmathify(bessel_K((1 - sc) / 2, alpha))
            val *= (abs(mp.mpf(a)) ** ((1 + sc) / 2)
                    * abs(mp.mpf(b)) ** ((1 - sc) / 2)
                    * (_sgn(a) * kb + _sgn(b) * ka))
    else:
        raise DomainError("vector matches none of the closed-form cases")
    return complex(val) if mp.im(val) else float(mp.re(val))


def _J_place(a, b, s):
    """2 int_0^inf exp(-pi (a/t)^2 - pi (b t)^2)(a/t + b t) t^s dt/t."""
    a, b, sc = mp.mpf(a), mp.mpf(b), mp.mpmathify(s)

    def f(t):
        return mp.exp(-mp.pi * (a / t) ** 2 - mp.pi * (b * t) ** 2) \
            * (a / t + b * t) * t ** (sc - 1)

    # truncate where a Gaussian factor drops below working precision;
    # without one the decay is only polynomial and quad handles it
    P = mp.ln(10) * (mp.mp.dps + 25)
    lo = 0 if a == 0 else abs(a) * mp.sqrt(mp.pi / P)
    hi = mp.inf if b == 0 else mp.sqrt(P / mp.pi) / abs(b)
    mid = 1 if lo < 1 < hi else mp.sqrt(lo * hi)
    return 2 * mp.quad(f, [lo, mid, hi])


def J_quadrature(x, s):
    """J_inf(x, s) as a product of numeric one-dimensional integrals
    over the archimedean places, independent of the closed forms."""
    with mp.workdps(QUADRATURE_DPS):
        val = mp.mpf(1)
        for a, b in x:
            if a == 0 and b == 0:
                raise DomainError("zero vector at a place")
            val *= _J_place(a, b, s)
        return complex(val) if mp.im(val) else float(mp.re(val))


def phi0_integral(x):
    """Integral of the normalized local theta kernel over the base
    cycle: 2^{-N} e^{pi Q(x,x)} J_inf(x, 0) with Q(x,x) = 2 sum x x'.

    Evaluates to sgn(prod x_sigma) when every place has matching signs,
    and to 0 otherwise.
    """
    if any(a == 0 or b == 0 for a, b in x):
        raise DomainError("phi0 needs nonzero coordinates at every place")
    N = len(x)
    with mp.workdps(QUADRATURE_DPS):
        Q = 2 * mp.fsum(mp.mpf(a) * b for a, b in x)
        val = mp.mpf(2) ** (-N) * mp.exp(mp.pi * Q) * J_quadrature(x, 0)
        return float(val)


def phi0_expected(x):
    """The sign predicate: sgn N(x) when sgn(x_sigma x'_sigma) = 1 at
    every place, 0 otherwise."""
    if any(_sgn(a * b) != 1 for a, b in x):
        return 0
    out = 1
    for a, _ in x:
        out *= _sgn(a)
    return out


def lambda_fn(s, N):
    """Lambda(s) = Gamma((1+s)/2)^N pi^{-N(1+s)/2}."""
    sc = mp.mpmathify(s)
    val = mp.gamma((1 + sc) / 2) ** N * mp.pi ** (-N * (1 + sc) / 2)
    return complex(val) if mp.im(val) else float(mp.re(val))


def Z_inf(taus, m, n, s):
    """Archimedean zeta factor Lambda(1+s)/i^N times
    prod v^{(1+s)/2} / (N(m - n tau) |N(m - n tau)|^s)."""
    N = len(taus)
    sc = mp.mpmathify(s)
    if mp.re(sc) <= -2:
        raise DomainError("needs Re s > -2")
    num = mp.mpmathify(lambda_fn(1 + sc, N)) / mp.mpc(0, 1) ** N
    Nm = mp.mpf(1)
    vprod = mp.mpf(1)
    for t in taus:
        t = mp.mpmathify(t)
        v = mp.im(t)
        if v <= 0:
            raise DomainError("tau must lie in the upper half plane")
        z = m - n * t
        if z == 0:
            raise DomainError("pole: m - n tau vanishes at a place")
        Nm = Nm * z
        vprod *= v ** ((1 + sc) / 2)
    return complex(num * vprod / (Nm * abs(Nm) ** sc))


def Z_inf_quadrature(taus, m, n, s):
    """The same factor from the defining one-dimensional integrals:
    per place, 2(-i z) int_0^inf e^{-pi t^2 |z|^2} t^{1+s} dt with
    z = conj(m - n tau)/sqrt(v)."""
    with mp.workdps(QUADRATURE_DPS):
        sc = mp.mpmathify(s)
        val = mp.mpf(1)
        for t in taus:
            t = mp.mpmathify(t)
            v = mp.im(t)
            z = mp.conj(m - n * t) / mp.sqrt(v)
            if z == 0:
                raise DomainError("pole: m - n tau vanishes at a place")
            hi = mp.sqrt(mp.ln(10) * (QUADRATURE_DPS + 25) / mp.pi) / abs(z)
            integral = mp.quad(
                lambda u: mp.exp(-mp.pi * u ** 2 * abs(z) ** 2) * u ** (1 + sc),
                [0, hi])
            val *= 2 * (-mp.mpc(0, 1) * z) * integral
        return complex(val)


def identity_checks():
    """The checks of rqgeo verify-analytic: per identity a dict of its
    name, the largest error over fixed and seeded inputs, the tolerance
    and whether the error is below it."""
    checks = []

    def record(name, err, tol):
        checks.append({"name": name, "max_error": float(err),
                       "tolerance": tol, "passed": bool(err < tol)})

    err = max(abs(bessel_K(0.5, a) - bessel_K_half_closed(a))
              / bessel_K_half_closed(a)
              for a in (0.1, 0.5, 1, 2, 5, 10, 20, 50))
    record("bessel_half", err, 1e-10)

    rng = random.Random(5)

    def nz():
        v = 0
        while abs(v) < 0.2:
            v = rng.uniform(-3, 3)
        return v

    worst = 0.0
    for N in (1, 2, 3):
        cases = [tuple((nz(), 0) for _ in range(N)),
                 tuple((0, nz()) for _ in range(N)),
                 tuple((nz(), nz()) for _ in range(N))]
        for x, s in zip(cases, (0.3, 0.3, 0.7)):
            a, b = J_closed(x, s), J_quadrature(x, s)
            worst = max(worst, abs(a - b) / max(1, abs(a)))
    record("J_closed_forms", worst, 1e-8)

    record("J_negative_norm", abs(J_quadrature(((1, 1), (1, -3)), 0)), 1e-8)

    worst = 0.0
    for x in (((1, 1), (1, 1)), ((-1, -1), (-1, -1)), ((1, -1), (1, 1))):
        worst = max(worst, abs(phi0_integral(x) - phi0_expected(x)))
    record("phi0_signs", worst, 1e-6)

    taus = (0.3 + 1.2j, -0.7 + 0.8j)
    worst = max(abs(Z_inf(taus, 3, 2, s) - Z_inf_quadrature(taus, 3, 2, s))
                for s in (0, 0.35, -0.5))
    record("Z_inf", worst, 1e-8)
    return checks
