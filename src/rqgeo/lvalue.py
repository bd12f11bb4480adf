"""The constant term L^(p)(psi, 0), computed by two independent routes.

The main route sums the exact partial zeta values at s = 0 against the
character: zeta(A, 0) = (1/12) * sum(delta) over the reduced cycle of
the class A, each reduction step being f.apply((0, -1; 1, delta)).  For
genus characters the value factors as a product of two Dirichlet
L-values at 0, which serves as an independent oracle via finite
generalized-Bernoulli sums.  The tests also check the partial zeta
values against Zagier's minus continued fraction cycles
(``rqgeo.oracles.minus_cf_cycle``).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import squarefree_part
from .field import _rho, class_of_ideal, form_cycle

__all__ = [
    "LValue",
    "NotApplicable",
    "partial_zeta_values",
    "L_value_zagier",
    "L_value_genus_oracle",
    "dirichlet_L0",
    "euler_factor",
    "constant_term",
    "kronecker",
]


class NotApplicable(Exception):
    """The character is not a genus character; the oracle does not apply."""


class LValue:
    """Constant term of the diagonal restriction.

    value = euler_factor_p * raw_L where raw_L = L(psi, 0).
    """

    __slots__ = ("value", "euler_factor_p", "raw_L")

    def __init__(self, value, euler_factor_p, raw_L):
        self.value = value
        self.euler_factor_p = euler_factor_p
        self.raw_L = raw_L

    def __repr__(self):
        return "LValue(value=%r, euler=%r, raw=%r)" % (
            self.value, self.euler_factor_p, self.raw_L)


def partial_zeta_values(F, G):
    """zeta(A_i, 0) for each narrow class, as exact rationals.

    The value is (1/12) * sum(delta) over the reduced cycle of the class,
    where each reduction step is f.apply((0, -1; 1, delta)).
    """
    return tuple(Fraction(sum(_rho(f)[1].d for f in form_cycle(rep)), 12)
                 for rep in G.class_reps)


def L_value_zagier(F, G, psi):
    """L(psi, 0) as the character-weighted sum of partial zeta values.

    Exact rational for order <= 2 characters, complex otherwise.
    """
    zetas = partial_zeta_values(F, G)
    vals = psi.values
    if all(isinstance(v, int) for v in vals):
        return sum((Fraction(0),) + tuple(v * z for v, z in zip(vals, zetas)))
    return sum(v * complex(z) for v, z in zip(vals, zetas))


def _is_fundamental(d):
    if d == 1:
        return True
    if d % 4 == 1:
        return squarefree_part(abs(d))[1] == 1
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree_part(abs(m))[1] == 1
    return False


def kronecker(a, b):
    """The Kronecker symbol (a/b) (Cohen, GTM 138, Algorithm 1.4.10)."""
    if b == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    k = 1
    while b % 2 == 0:
        b //= 2
        if a % 8 in (3, 5):
            k = -k
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    # b is odd and positive: reciprocity until a vanishes
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                k = -k
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a, b = b % abs(a), abs(a)
    return k if b == 1 else 0


def dirichlet_L0(d):
    """L(chi_d, 0) for a fundamental discriminant d, as an exact rational.

    Zero for d > 0 (even character); -B_{1,chi} for d < 0.
    """
    if not _is_fundamental(d):
        raise ValueError("%d is not a fundamental discriminant" % d)
    if d > 0:
        return Fraction(0)
    m = abs(d)
    return Fraction(-sum(kronecker(d, a) * a for a in range(1, m)), m)


def L_value_genus_oracle(F, G, psi):
    """Genus-character factorization oracle: L(psi, 0) = L(chi_d1, 0) *
    L(chi_d2, 0) for the splitting d_F = d1 * d2 into two negative
    fundamental discriminants.  Only valid for odd 2-torsion psi."""
    if psi.order > 2 or not psi.totally_odd:
        raise NotApplicable("not an odd genus character")
    d = F.d_F
    pairs = []
    for d1 in range(-1, -d - 1, -1):
        if d % d1:
            continue
        d2 = d // d1
        if d2 >= d1 and _is_fundamental(d1) and _is_fundamental(d2):
            pairs.append((d1, d2))
    if len(pairs) != 1:
        raise NotApplicable("no unique negative fundamental splitting of %d" % d)
    d1, d2 = pairs[0]
    return dirichlet_L0(d1) * dirichlet_L0(d2)


def euler_factor(F, G, psi, p, r):
    """(1 - psi(P)) * (1 - psi(P^sigma)) for the degree-one primes P,
    P^sigma over the split prime p, located via the ideal dictionary."""
    d = F.d_F
    if (r * r - d) % (4 * p):
        raise ValueError("r is not a square root of d_F mod 4p")
    cls_p = class_of_ideal(G, (p, r))
    cls_ps = class_of_ideal(G, (p, -r))
    return (1 - psi(cls_p)) * (1 - psi(cls_ps))


def constant_term(F, G, psi, p, r):
    """Assemble L^(p)(psi, 0) = euler_factor * L(psi, 0), cross-checked
    against the genus oracle whenever it applies."""
    if not psi.totally_odd:
        raise ValueError("character is not totally odd")
    raw = L_value_zagier(F, G, psi)
    try:
        oracle = L_value_genus_oracle(F, G, psi)
    except NotApplicable:
        pass
    else:
        assert raw == oracle, (raw, oracle)
    e = euler_factor(F, G, psi, p, r)
    return LValue(e * raw, e, raw)
