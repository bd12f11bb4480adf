"""Assemble the diagonal-restriction q-expansion and check modularity.

The q-series is weight 2 on Gamma0(p): constant term L^(p)(psi, 0) from
the lvalue module, higher coefficients from the pairings <T_n Q, W> of
the RM points Q of r with the winding geodesic W (pairing_table),
weighted by psi + conj(psi), which counts the points of -r too.  Each
root's points and their Manin tables (geodesic.manin_table) are found
once for every N (manin_tables), and one walk pairs r's tables with
T_n W for every n <= N (hecke.manin_pairings).  check_pairing_table
counts both again with no Hecke translate: the tables of every root it
is given by the Farey walk (geodesic.manin_table_enum), and T_n W by one
pass over Merel's set for r's tables (hecke.merel_pairings).  For
genus-zero levels the space of such forms is one-dimensional and the
whole series is pinned by a single proportionality; for p = 11 it is
two-dimensional and the cusp direction is spanned by an eta product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .geodesic import AlgorithmMismatch, InertPrime, choose_r, manin_table
from .geodesic import manin_table_enum, rm_points
from .exact import divisor_sums
from .hecke import manin_pairings, merel_pairings
from .lvalue import constant_term

__all__ = [
    "QSeries",
    "AlgorithmMismatch",
    "GENUS_ZERO_LEVELS",
    "diagonal_restriction",
    "manin_tables",
    "pairing_table",
    "check_pairing_table",
    "eta_product_coeffs",
    "modularity_check",
]

GENUS_ZERO_LEVELS = (2, 3, 5, 7, 13)

# The raw pairing counts every crossing once for each of the two square
# roots +-r, which trace out the same locus; the classical factor -4
# applies to the halved pairing.  Pinned end to end by the genus-zero
# proportionality law; see modularity_check.
PAIRING_FACTOR = -4


class QSeries:
    """Truncated q-expansion with exact coefficients.

    coeffs maps n = 1..N to the coefficient of q^n; metadata records
    (d_F, p, r, psi exponents, kappa = 2, sign convention).
    """

    __slots__ = ("constant", "coeffs", "metadata", "inert")

    def __init__(self, constant, coeffs, metadata, inert=False):
        self.constant = constant
        self.coeffs = dict(coeffs)
        self.metadata = dict(metadata)
        self.inert = inert

    @property
    def N(self):
        return max(self.coeffs) if self.coeffs else 0

    def is_zero(self):
        return self.constant == 0 and all(v == 0 for v in self.coeffs.values())

    def __eq__(self, other):
        return (isinstance(other, QSeries)
                and self.constant == other.constant
                and self.coeffs == other.coeffs)

    def __repr__(self):
        head = ", ".join("%s" % (self.coeffs[n],) for n in sorted(self.coeffs)[:6])
        return "QSeries(constant=%s, coeffs=[%s, ...], p=%s)" % (
            self.constant, head, self.metadata.get("p"))


def _coefficient(pairing):
    half, rem = divmod(pairing, 2)
    assert rem == 0, "pairing is odd: %r" % (pairing,)
    return PAIRING_FACTOR * half


@lru_cache(maxsize=16)
def manin_tables(F, G, p, r):
    """(Q, manin_table(Q)) for the RM point Q of each narrow class of the
    root choose_r(F, p, r): one search and one cycle walk per root,
    whatever N, kept for the last few (F, G, p, r).  F and G are keyed
    by identity, so a freshly built field gets fresh tables.

    The series needs no table at -r.  Reversing the point f_c of class c
    gives -f_c, a -r RM form of class G.sigma(c) = c^-1 s, s the class
    of (sqrt(d_F)); by the Gross-Kohnen-Zagier bijection between the RM
    points of r and of -r it is Gamma0(p)-equivalent to that class's -r
    point, and reversal negates every winding number.  So the table of
    sigma(c) at -r is the negated table of c at r (verify's pm_halves);
    the class of every -f_c is asserted to be sigma(c).
    """
    points = rm_points(F, G, p, choose_r(F, p, r))
    for c, Q in enumerate(points):
        assert G.classify(Q.reversed().form) == G.sigma(c), ("-f_c misfiled", c)
    return tuple((Q, manin_table(Q)) for Q in points)


@lru_cache(maxsize=16)
def pairing_table(F, G, p, r, N):
    """Raw pairings <T_n Q, W>, n = 1..N, of the RM point Q of each class
    at the root r: one row per class, indexed by n - 1, from one walk over
    their Manin tables (hecke.manin_pairings), no Hecke translate.  The
    pairing is linear in the twisted cycle, so the series of every
    character psi is a psi-weighted sum of these rows."""
    return manin_pairings([t for _, t in manin_tables(F, G, p, r)], N, p)


def check_pairing_table(F, G, p, roots, N):
    """Check the Manin tables of the RM points of every root, and
    pairing_table at the first root r, with no Hecke translate: each
    table must equal the Farey walk's (geodesic.manin_table_enum), key
    by key, and for every n each of r's rows, which pairs the table with
    the left cosets (hecke.manin_pairings), must equal its pairing with
    Merel's set X_n (hecke.merel_pairings, one pass for r's h tables).
    The two decompositions of T_n W may differ by Manin relations, which
    every table satisfies, so the pairings are compared, not edge counts.
    Raises AlgorithmMismatch naming the first such point and the least
    P^1 key or the first n where they differ."""
    rows = pairing_table(F, G, p, roots[0], N)
    merel = merel_pairings([t for _, t in manin_tables(F, G, p, roots[0])],
                           N, p)
    points = [point for r in roots for point in manin_tables(F, G, p, r)]
    for i, (Q, table) in enumerate(points):
        farey = manin_table_enum(Q)
        if table != farey:
            k = min(table.items() ^ farey.items())[0]
            raise AlgorithmMismatch(
                "RM point %r at key %d: cycle=%r farey=%r"
                % (Q.form, k, table.get(k, 0), farey.get(k, 0)))
        if i < len(rows) and rows[i] != merel[i]:
            row, other = rows[i], merel[i]
            n = 1 + next(j for j, x in enumerate(row) if x != other[j])
            raise AlgorithmMismatch(
                "RM point %r at n=%d: manin=%r merel=%r"
                % (Q.form, n, row[n - 1], other[n - 1]))


def diagonal_restriction(F, G, psi, p, N=30, r=None, algorithm="cycle"):
    """q-expansion of the diagonal restriction of the p-stabilized
    Eisenstein series attached to psi, truncated at q^N.

    The pairings come from pairing_table, so characters of one field
    share them.  The row of sigma(c) at -r is the negated row of c at r
    and psi(sigma(c)) = -conj(psi(c)), so only psi.trace(c) weights c's
    row at r; its ValueError comes before any table is built, at an
    inert p too.  algorithm must be "cycle", the Manin-row table; the
    keyword remains because benchmarks/worker.py passes it.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if algorithm != "cycle":
        raise ValueError("unknown algorithm %r" % (algorithm,))
    if not psi.totally_odd:
        raise ValueError("character is not totally odd")
    meta = {"d_F": F.d_F, "p": p, "r": None, "psi": psi.exponents,
            "kappa": 2, "pairing_factor": PAIRING_FACTOR}
    traces = [psi.trace(cls) for cls in range(G.h)]
    try:
        r = choose_r(F, p, r)
    except InertPrime:
        return QSeries(0, {n: 0 for n in range(1, N + 1)}, meta, inert=True)
    meta["r"] = r
    constant = constant_term(F, G, psi, p, r)
    table = pairing_table(F, G, p, r, N)
    coeffs = {n: _coefficient(sum(map(mul, traces, column)))
              for n, column in enumerate(zip(*table), 1)}
    return QSeries(constant, coeffs, meta)


def eta_product_coeffs(N):
    """Coefficients 1..N of q prod (1-q^k)^2 (1-q^{11k})^2, the weight-2
    cusp form generator for Gamma0(11)."""
    poly = [0] * N
    if N >= 1:
        poly[0] = 1
    for k in range(1, N):
        for j in (k, k, 11 * k, 11 * k):
            if j >= N:
                continue
            for i in range(N - 1, j - 1, -1):
                poly[i] -= poly[i - j]
    return {n: poly[n - 1] for n in range(1, N + 1)}


class ModularityReport:
    __slots__ = ("passed", "mode", "first_fail", "message")

    def __init__(self, passed, mode, first_fail=None, message=""):
        self.passed = passed
        self.mode = mode
        self.first_fail = first_fail
        self.message = message

    def __repr__(self):
        return "ModularityReport(passed=%r, mode=%r, first_fail=%r)" % (
            self.passed, self.mode, self.first_fail)


def modularity_check(S):
    """Verify that S lies in M_2(Gamma0(p)).

    Genus-zero p: the space is spanned by the Eisenstein series with
    constant term (p-1)/24 and coefficients sigma1(n, p), so the whole
    series must be proportional to it.  p = 11: solve for the Eisenstein
    and eta-product components from (constant, a_1) and check the rest,
    so at least a_2 must be given.
    """
    p = S.metadata["p"]
    N = S.N
    if S.is_zero():
        return ModularityReport(True, "zero")
    sigma = divisor_sums(N, 1, p)
    if p in GENUS_ZERO_LEVELS:
        a1 = S.coeffs[1]
        if S.constant * Fraction(24, p - 1) != a1:
            return ModularityReport(False, "genus0", 0,
                                    "constant term out of proportion")
        for n in range(1, N + 1):
            if S.coeffs[n] != a1 * sigma[n]:
                return ModularityReport(False, "genus0", n,
                                        "coefficient %d out of proportion" % n)
        return ModularityReport(True, "genus0")
    if p == 11:
        if N < 2:
            raise ValueError("p = 11 check needs N >= 2")
        eta = eta_product_coeffs(N)
        alpha = S.constant * Fraction(24, 10)
        beta = S.coeffs[1] - alpha
        for n in range(2, N + 1):
            if S.coeffs[n] != alpha * sigma[n] + beta * eta[n]:
                return ModularityReport(False, "dim2", n,
                                        "coefficient %d off the 2-dim space" % n)
        return ModularityReport(True, "dim2")
    raise ValueError("no modularity model for p = %d" % p)
