"""Closed geodesics, RM points and winding intersection numbers.

An oriented closed geodesic on Y0(p) is a primitive indefinite form f
taken with its sign: it runs from the plus root of f to the minus root,
so -f is the reversed geodesic.  Its stabilizer in Gamma0(p) is the
automorph A of f raised to the length of the orbit of infinity under A
in P^1(F_p); everything else is derived from f on demand.  Each narrow
class has an RM point for each square root s of d_F mod 4p, found for
all classes at once by one search (rm_points), and the psi-twisted
cycle is the tuple of (psi(class), RM point) pairs over s = +r and -r.

Two independent algorithms compute the Manin table of a closed geodesic
Q on Y0(p): the signed crossings of one Gamma0(p)-period of Q with the
Gamma0(p)-orbit of every unimodular edge, the dict of the nonzero counts
keyed by P^1(F_p).  Summed over the edges of T_n W, W the winding
geodesic 0 -> infinity, it gives <T_n Q, W> for n = 1..N with no Hecke
translate (hecke.manin_pairings, or Merel's set in hecke.merel_pairings).

* manin_table(Q) walks the reduction cycle of the reduced form of Q,
  a run of |delta| river edges of the Conway topograph per step, once
  for each turn of one Gamma0(p)-period of Q, and carries only the
  bottom row of the faces mod p.  intersect_winding_cycle(Q) is its
  entry p, the orbit of the edge 0 -> infinity: the sum of sgn(a) over
  the forms in the proper Gamma0(p)-class of Q whose root geodesic
  separates 0 from infinity (those with a*c < 0), the edges of the river
  with a face in the orbit of infinity in P^1(F_p) under the automorph;
* manin_table_enum(Q) walks the Farey tessellation along one period of
  the closed geodesic, in the original coordinates and without reducing
  the form, and keys each crossed edge by its bottom row; it shares
  nothing with the cycle side.  A Farey vertex (x, y) lies between the
  roots exactly when f(x, y) * a < 0, the walk steps to mediants toward
  one root, and the period ends at the stabilizer's image of the first
  crossed edge; every crossed edge has the same sign, fixed by the side
  of the geodesic that the walk keeps its first point on and by the
  sign of a.  intersect_winding_enum(Q) is its entry p.

Everything is integer arithmetic; the roots of f are never built.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .exact import DomainError, divisors, is_prime, sqrt_mod
from .field import QuadForm, automorph, form_cycle, reduce_form

__all__ = [
    "AlgorithmMismatch",
    "ClosedGeodesic",
    "InertPrime",
    "check_level",
    "choose_r",
    "rm_points",
    "twisted_cycle",
    "gamma0_automorph",
    "intersect_winding_cycle",
    "intersect_winding_enum",
    "manin_table",
    "manin_table_enum",
    "p1_key",
]


class InertPrime(Exception):
    """The rational prime is inert in F; the whole series vanishes."""


class AlgorithmMismatch(Exception):
    """Two independent counts disagreed (should never happen)."""


class ClosedGeodesic(tuple):
    """Oriented closed geodesic on Y0(p): the tuple (form, p) of a primitive
    form, whose sign orients it from the plus root (-b + sqrt(disc))/(2a)
    to the minus one, so that -form reverses it, and of the level p."""

    __slots__ = ()

    def __new__(cls, form, p):
        form, _ = form.primitive()
        d = form.disc()
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise ValueError("form must have positive nonsquare discriminant")
        return tuple.__new__(cls, (form, p))

    form = property(itemgetter(0))
    p = property(itemgetter(1))

    @property
    def gamma(self):
        """Generator of the proper stabilizer of the geodesic in Gamma0(p).
        A det-1 matrix fixes both roots of f exactly when it fixes f; one
        that swaps them takes f to -f."""
        gamma = gamma0_automorph(self.form, self.p)
        assert gamma.det == 1 and gamma.c % self.p == 0
        assert self.form.apply(gamma) == self.form
        return gamma

    def reversed(self):
        a, b, c = self.form
        return ClosedGeodesic(QuadForm(-a, -b, -c), self.p)

    def __repr__(self):
        return "ClosedGeodesic(form=%r, p=%d)" % (self.form, self.p)


def check_level(F, p):
    """Raise DomainError unless p is an odd prime unramified in F."""
    if p % 2 == 0 or not is_prime(p):
        raise DomainError("p must be an odd prime")
    if F.d_F % p == 0:
        raise DomainError("p ramifies in F")


def choose_r(F, p, r=None):
    """A square root r of d_F mod 4p with r^2 > d_F: the given one, which
    is checked, or else the smallest positive one.  Its sign picks which
    RM point of each class is the plus one (rm_points).

    The roots mod 4p are the r = +-rho (mod p), rho a square root of d_F
    mod p (exact.sqrt_mod), with r = d_F (mod 2), since d_F is 0 or 1
    mod 4; so the default is the least r > isqrt(d_F) in one of those two
    classes mod 2p, found in O(log p) steps.

    Raises DomainError when p is not an odd prime unramified in F or r is
    not such a root, and InertPrime when d_F is not a square mod p.
    """
    check_level(F, p)
    d = F.d_F
    if pow(d, (p - 1) // 2, p) != 1:
        raise InertPrime("d_F = %d is a nonresidue mod %d" % (d, p))
    if r is None:
        rho, low = sqrt_mod(d, p), math.isqrt(d) + 1
        lifts = (x + p if (x - d) % 2 else x for x in (rho, p - rho))
        r = min(low + (x - low) % (2 * p) for x in lifts)
    elif (r * r - d) % (4 * p) or r * r <= d:
        raise DomainError("invalid square root r = %d of d_F mod 4p" % r)
    return r


def rm_points(F, G, p, s):
    """The RM points of the root s, one ClosedGeodesic per narrow class:
    a primitive form [a, b, c] of the class with p | a and b = -s
    (mod 2p).

    One search meets the candidates b = -s + 2pk for k = 0, 1, -1, 2,
    -2, ..., then p | a by increasing |a|, +a before -a; it classifies
    each primitive candidate once, keeps the first one of each class,
    and stops once every class has one.
    """
    first = {}
    for f in _rm_candidates(F.d_F, p, s):
        first.setdefault(G.classify(f), f)
        if len(first) == G.h:
            break
    return tuple(ClosedGeodesic(first[cls], p) for cls in range(G.h))


def _rm_candidates(d, p, s):
    for k in range(10000):
        for j in ((k, -k) if k else (0,)):
            b = -s + 2 * p * j
            m = (b * b - d) // 4
            assert (b * b - d) % 4 == 0 and m % p == 0
            for e in divisors(abs(m) // p):
                for a in (p * e, -p * e):
                    f = QuadForm(a, b, m // a)
                    if f.content() == 1:
                        yield f
    raise RuntimeError("rm point search exhausted")


def twisted_cycle(F, G, psi, p, r):
    """The psi-twisted cycle: (psi(cls), Q) for the +r and the -r RM point
    Q of each narrow class, r from choose_r; psi must be real (order <= 2)."""
    if not psi.totally_odd:
        raise ValueError("character is not totally odd")
    pairs = zip(rm_points(F, G, p, r), rm_points(F, G, p, -r))
    return tuple((psi(cls), Q) for cls, pair in enumerate(pairs) for Q in pair)


# ---------------------------------------------------------------------------
# algorithm 1: the reduction cycle, in runs of river edges
#
# Let f = Q.form.  The forms with a*c < 0 in the proper SL2(Z)-class of f
# are the edges of the river of f's topograph: the edge between the
# faces e1 (value a > 0) and e2 (value c < 0) stands for the two forms
# [a, b, c] = f.apply(m), m = (e1 | e2), and [c, -b, a] = f.apply(m S),
# S = (0, -1; 1, 0).  The automorph of f shifts the river by one period,
# so one period meets every such form exactly once.  A form f.apply(m)
# lies in the Gamma0(p)-class of f exactly when some automorph power
# times m lies in Gamma0(p), that is when the face e1 lies in the orbit
# of infinity = (1 : 0) in P^1(F_p) under the automorph.  So the sum of
# sgn(a) over these forms is the signed number of crossings of one
# Gamma0(p)-period of Q with the Gamma0(p)-orbit of the edge
# 0 -> infinity: entry p of the Manin table.
#
# The reduced forms of the class are river edges too, in the order of
# the reduction cycle (form_cycle).  The step of delta takes the faces
# (e0, e1) of one reduced form to (e1, delta e1 - e0) and passes the
# |delta| edges between the face e1 and the faces k e1 - e0, k from 0
# toward delta (k = delta is the next step's first edge).  One turn of
# the cycle is thus one river period, and the faces at its end are the
# automorph's images of those at its start, up to sign.


def p1_key(x, y, p):
    """Index in 0..p of the point (x : y) of P^1(F_p); p is infinity."""
    return p if y % p == 0 else x * pow(y, -1, p) % p


def gamma0_automorph(form, p):
    """Generator of the stabilizer of form in Gamma0(p): the least power
    of the totally positive automorph A that lies in Gamma0(p).  A^k is
    in Gamma0(p) exactly when it fixes infinity in P^1(F_p), so k is the
    length of the orbit of infinity under A."""
    A = automorph(form)
    a, b, c, d = A.mod(p)
    x, y, k = a, c, 1           # A^k infinity = (x : y)
    while y:
        x, y, k = (a * x + b * y) % p, (c * x + d * y) % p, k + 1
    return A ** k


def manin_table(Q):
    """The winding numbers of Q against every unimodular edge, as the
    dict of the nonzero ones: key k in 0..p holds the signed number of
    crossings of one Gamma0(p)-period of Q with the Gamma0(p)-orbit of
    the edge h(0 -> infinity), h in SL2(Z) of bottom row (c, d),
    k = p1_key(d, c), and a missing key counts 0.  Entry p, the bottom
    row (0 : 1), is intersect_winding_cycle.  The reversed edge h S has
    bottom row (d, -c), so the entries of (c : d) and (d : -c) are
    opposite.

    Let m reduce Q.form to g.  The river edges of g are the Farey edges
    that g's geodesic crosses, and m carries them to Q's.  The edge
    between the faces F1 and F2, with h = (F1 | F2) in SL2(Z), is
    h(0 -> infinity) = (F2 -> F1), crossed with the sign of g(F1), and
    m h has bottom row (rho F1, rho F2), rho = (m.c, m.d).  A run of the
    reduction cycle (see the comment above) has F1 = e1, of the sign of
    delta, and F2 = k e1 - e0; it adds sgn(delta) at p1_key(rho F2,
    rho F1) and -sgn(delta) at p1_key(-rho F1, rho F2) per edge.  The
    walk keeps only the row (x0, x1) = (rho e0, rho e1) mod p, which
    starts at (m.c, m.d) and which a step takes to (x1, delta x1 - x0).
    After i turns it is rho P^i, P the product of the steps, and
    m P^i m^-1 lies in Gamma0(p) exactly when rho P^i is a multiple of
    rho mod p; so one Gamma0(p)-period of Q is the turns up to the first
    that ends on a multiple of (m.c, m.d).

    An edge's second key is -1/t of its first key t (p for t = 0, 0 for
    t = p), so only the first keys of the period are counted, and each
    distinct t is inverted once at the end.  A run is taken mod p: its
    faces k e1 - e0 depend on k only mod p.  If x1 != 0, the first key
    of edge k is k - x0/x1, so p consecutive edges meet every first key
    0..p-1 once, and the second keys of those of first key t != 0 are
    the first keys 1..p-1 again: a lap nets sgn(delta) at first key 0,
    so each of the q laps of |delta| = q p + rem edges is folded into
    that count and only the first rem edges are visited.  If x1 = 0,
    every edge has first key p, and the run adds delta there.
    """
    p = Q.p
    g, m = reduce_form(Q.form)
    deltas = form_cycle(g)[1]
    firsts = {}                 # the signed count of each first key
    r0, r1 = x0, x1 = m.c % p, m.d % p
    while True:
        for delta in deltas:
            if x1:              # the first key of edge k is k - x0/x1
                sign = 1 if delta > 0 else -1
                laps, rem = divmod(sign * delta, p)
                firsts[0] = firsts.get(0, 0) + sign * laps
                t0 = x0 * pow(x1, -1, p)
                for k in range(0, sign * rem, sign):
                    t = (k - t0) % p
                    firsts[t] = firsts.get(t, 0) + sign
            else:
                firsts[p] = firsts.get(p, 0) + delta
            x0, x1 = x1, (delta * x1 - x0) % p
        if (x0 * r1 - x1 * r0) % p == 0:
            break
    table = {}
    for t, n in firsts.items():
        table[t] = table.get(t, 0) + n
        k = p if t == 0 else 0 if t == p else -pow(t, -1, p) % p
        table[k] = table.get(k, 0) - n
    return {k: n for k, n in table.items() if n}


def intersect_winding_cycle(Q):
    """Winding intersection number by the reduction cycle: the sum of
    sgn(a) over the forms [a, b, c] with a*c < 0, the river edges, in the
    Gamma0(p)-class of Q.form, which is entry p of manin_table(Q).  The
    class of -f holds the negatives of the forms in the class of f, so
    reversing Q negates the sum."""
    return manin_table(Q).get(Q.p, 0)


# ---------------------------------------------------------------------------
# algorithm 2: Farey tessellation walk along one period of the geodesic
#
# Every Farey edge (u, v) (|cross(u, v)| = 1) is h(0 -> infinity) for
# h = (u | v) in SL2(Z), v negated if need be, and its Gamma0(p)-orbit is
# the point of its bottom row in P^1(F_p); the translates of the
# imaginary axis are the edges with exactly one endpoint of denominator
# divisible by p (infinity = 1/0 counts as divisible).  The geodesic of
# f = [a, b, c] crosses the Farey edge (u, v) exactly when one end lies
# between the roots and the other does not, and the point (x, y) lies
# between the roots exactly when f(x, y) * a < 0.  The crossed edges, in
# order along the geodesic, form a sequence that the stabilizer gamma
# shifts by one period; so the walk starts at a crossed edge E0, counts
# it, and steps from triangle to triangle until the edge it reaches is
# gamma E0 or gamma^-1 E0, whichever lies ahead.
#
# An edge h(0 -> infinity) counts +1 if h^-1 takes the plus root to the
# positive half line and the minus root to the negative one, and -1 the
# other way; one sign serves the whole walk.  For the edge (u, v) let
# e = cross(u, v) = +-1 and h = (u | e v), of det 1.  It sends 0 to v and
# infinity to u, so h^-1 sends to the positive half line the arc of the
# boundary that rises from v to u (through infinity if u < v).  The edge
# is crossed, so that arc holds one root: the lower one if u lies
# between the roots (the arc enters their interval there), the upper one
# otherwise (it leaves it there); the plus root is the upper one exactly
# when a > 0.  Every walked edge is crossed and a step keeps u on the
# side of the start edge's u, so the sign is fixed by that side and
# sgn(a).  A step keeps e too, since cross(u, u + v) = cross(u + v, v) =
# cross(u, v).  gamma has det 1 and fixes both roots, so it keeps each
# side of the geodesic, and the walk meets gamma E0 as (gamma u, gamma v),
# never as (gamma v, gamma u).


def _norm_pt(t):
    """The boundary point t = (num, den) in lowest terms with den >= 0,
    and infinity as (1, 0)."""
    n, d = t
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if d < 0 or (d == 0 and n < 0):
        n, d = -n, -d
    return (n, d)


def _start_edge(f, D, inside):
    """The first pair of consecutive continued-fraction convergents of
    the plus root of f, of discriminant D, starting from 0/1 and 1/0,
    that lie on opposite sides of the geodesic.  Convergents close in on
    the root from alternate sides, so such a pair exists.  The complete
    quotients are (P + sqrt(D))/Q with Q | D - P^2, from P = -b, Q = 2a,
    so each partial quotient is an integer floor."""
    P, Q, r = -f.b, 2 * f.a, math.isqrt(D)
    h0, k0, h1, k1 = 0, 1, 1, 0
    while inside((h0, k0)) == inside((h1, k1)):
        an = (P + r) // Q if Q > 0 else (P + r + 1) // Q
        h0, k0, h1, k1 = h1, k1, an * h1 + h0, an * k1 + k0
        P = an * Q - P
        Q = (D - P * P) // Q
    return _norm_pt((h0, k0)), _norm_pt((h1, k1))


def manin_table_enum(Q):
    """manin_table(Q) by the Farey walk along one Gamma0(p)-period of
    the geodesic: each crossed edge (u, v) is h(0 -> infinity) for
    h = (u | e v), e = cross(u, v), and adds the walk's sign s at
    p1_key(e vd, ud), its bottom row (ud : e vd), and -s at
    p1_key(-ud, e vd), the bottom row of the reversed edge h S.  The
    sign, e and the two stop edges hold for the whole walk (see the
    comment above), so they are fixed before it."""
    f = Q.form
    a, b, c = f
    D = b * b - 4 * a * c
    gamma, p = Q.gamma, Q.p

    def inside(t):
        x, y = t
        return (a * x * x + b * x * y + c * y * y) * a < 0

    edge = _start_edge(f, D, inside)
    stops = [tuple(_norm_pt((m.a * x + m.b * y, m.c * x + m.d * y))
                   for x, y in edge)
             for m in (gamma, gamma.adjugate())]    # gamma and gamma^-1
    (un, ud), (vn, vd) = edge
    e = un * vd - vn * ud
    uin = inside(edge[0])
    s = 1 if uin == (a < 0) else -1
    table = {}
    while edge not in stops:
        (_, ud), (_, vd) = u, v = edge
        k = p1_key(e * vd, ud, p)
        table[k] = table.get(k, 0) + s
        k = p1_key(-ud, e * vd, p)
        table[k] = table.get(k, 0) - s
        # step across the edge into the Farey triangle (u, v, u + v).  The
        # geodesic crosses (u, v), so one root lies in the interval that
        # the edge spans and the triangles below it close in on that root:
        # the walk never turns back to u - v.  The mediant of a unimodular
        # pair is primitive, and it has a positive denominator since u and
        # v have nonnegative ones, so it is normalized as it stands
        x, y = t = (u[0] + v[0], u[1] + v[1])
        if ((a * x * x + b * x * y + c * y * y) * a < 0) != uin:
            edge = (u, t)
        else:
            edge = (t, v)
    return {k: n for k, n in table.items() if n}


def intersect_winding_enum(Q):
    """Winding intersection number by the Farey walk: entry p of
    manin_table_enum(Q), the crossed edges in the Gamma0(p)-orbit of
    0 -> infinity, those with exactly one end of denominator divisible
    by p."""
    return manin_table_enum(Q).get(Q.p, 0)
