"""The constant term L^(p)(psi, 0), computed by two independent routes.

The main route sums the exact partial zeta values at s = 0 against the
integer trace psi + conj(psi) of the character and halves the sum:
zeta(A, 0) = (1/12) * sum(delta) over the reduced cycle of the class A,
each reduction step being f.apply((0, -1; 1, delta)), so the sum is of
integers, divided once by 24.  The class group keeps those deltas from the
walk that found the cycle, so no cycle is walked here.  For odd characters
of order 2, the genus characters, the value factors as a product of two
Dirichlet L-values at 0, which serves as an independent oracle via the
class numbers of two imaginary quadratic fields.  The tests also check the
partial zeta values against Zagier's minus continued fraction cycles
(``rqgeo.oracles.minus_cf_cycle``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import divisors, is_prime, squarefree_part
from .field import class_of_ideal
from .geodesic import choose_r

__all__ = [
    "NotApplicable",
    "partial_zeta_values",
    "L_value_zagier",
    "L_value_genus_oracle",
    "dirichlet_L0",
    "euler_factor",
    "constant_term",
]


class NotApplicable(Exception):
    """The character is not a genus character; the oracle does not apply."""


def partial_zeta_values(G):
    """zeta(A_i, 0) for each narrow class, as exact rationals.

    The value is (1/12) * sum(delta) over the reduced cycle of the class,
    where each reduction step is f.apply((0, -1; 1, delta)).
    """
    return tuple(Fraction(sum(deltas), 12) for _, deltas in G.cycles)


def L_value_zagier(G, psi):
    """L(psi, 0) = (1/2) sum_c trace(c) zeta(c, 0), an exact rational:
    zeta(c, 0) = zeta(c^-1, 0) by Galois conjugation.  It is computed as
    sum_c trace(c) sum(delta_c) / 24, one integer sum and one division."""
    return Fraction(sum(psi.trace(c) * sum(deltas)
                        for c, (_, deltas) in enumerate(G.cycles)), 24)


def _is_fundamental(d):
    if d % 4 == 1:
        return d != 1 and squarefree_part(abs(d))[1] == 1
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree_part(abs(m))[1] == 1
    return False


def dirichlet_L0(d):
    """L(chi_d, 0) for a fundamental discriminant d, as an exact rational.

    Zero for d > 0 (even character); for d < 0 it is 2 h(d) / w(d), with
    w(d) the number of units and h(d) the number of reduced forms
    [a, b, c] of discriminant d: |b| <= a <= c, and b >= 0 when |b| = a
    or a = c.  That is about |d|/7 trial divisions; the generalized
    Bernoulli sum -B_{1,chi}, the tests' reference, takes |d| symbols.
    """
    if not _is_fundamental(d):
        raise ValueError("%d is not a fundamental discriminant" % d)
    if d > 0:
        return Fraction(0)
    h, b = 0, d % 2
    while 3 * b * b <= -d:
        ac = (b * b - d) // 4
        for a in range(max(b, 1), math.isqrt(ac) + 1):
            if ac % a == 0:
                h += 1 if b in (0, a) or a * a == ac else 2
        b += 2
    return Fraction(2 * h, {-3: 6, -4: 4}.get(d, 2))


def L_value_genus_oracle(F, psi):
    """Genus-character factorization oracle: L(psi, 0) = L(chi_d1, 0) *
    L(chi_d2, 0) for the splitting d_F = d1 * d2 into two negative
    fundamental discriminants that belongs to psi, the one with
    psi(l) = chi_d1(ell) at each prime l = (ell, r) over an odd split
    prime ell, which is classified once per field.  Split primes are
    tried in turn until one splitting is left.  Only valid for odd psi
    of order 2, the genus characters."""
    if psi.order != 2 or not psi.totally_odd:
        raise NotApplicable("not an odd genus character")
    d = F.d_F
    pairs = []
    for e in divisors(d):
        d1, d2 = -e, -(d // e)
        if d2 >= d1 and _is_fundamental(d1) and _is_fundamental(d2):
            pairs.append((d1, d2))
    ell = 1
    while len(pairs) > 1:
        ell += 2
        # Euler's criterion: (a/ell) = a^((ell - 1)/2) mod ell, ell odd prime
        if is_prime(ell) and pow(d, (ell - 1) // 2, ell) == 1:
            value = psi(_class_over(psi.group, ell, choose_r(F, ell)))
            pairs = [s for s in pairs
                     if pow(s[0], (ell - 1) // 2, ell) == value % ell]
    assert len(pairs) == 1, ("no negative splitting of %d fits" % d, psi)
    d1, d2 = pairs[0]
    return dirichlet_L0(d1) * dirichlet_L0(d2)


@lru_cache(maxsize=16)
def _class_over(G, p, r):
    """The narrow class of the prime (p, r), classified once for every
    character of G (keyed by the group object itself, like
    series.pairing_table)."""
    return class_of_ideal(G, (p, r))


def euler_factor(F, G, psi, p, r):
    """(1 - psi(P)) * (1 - psi(P^sigma)) = 2 - trace([P]) for the primes
    P = (p, r), P^sigma = (p, -r) over the split p: P P^sigma = (p) is
    principal and totally positive, so psi(P^sigma) = conj(psi(P))."""
    if (r * r - F.d_F) % (4 * p):
        raise ValueError("r is not a square root of d_F mod 4p")
    return 2 - psi.trace(_class_over(G, p, r))


def constant_term(F, G, psi, p, r):
    """Assemble L^(p)(psi, 0) = euler_factor * L(psi, 0), cross-checked
    against the genus oracle whenever it applies."""
    if not psi.totally_odd:
        raise ValueError("character is not totally odd")
    raw = L_value_zagier(G, psi)
    try:
        oracle = L_value_genus_oracle(F, psi)
    except NotApplicable:
        pass
    else:
        assert raw == oracle, (raw, oracle)
    return euler_factor(F, G, psi, p, r) * raw
