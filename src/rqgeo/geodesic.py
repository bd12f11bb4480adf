"""Closed geodesics, RM points and winding intersection numbers.

An oriented closed geodesic on Y0(p) is a primitive indefinite form f
taken with its sign: it runs from the plus root of f to the minus root,
so -f is the reversed geodesic.  Its stabilizer in Gamma0(p) is the
automorph A of f raised to the length of the orbit of infinity under A
in P^1(F_p); everything else is derived from f on demand.  Each narrow
class has an RM point for +r and one for -r (rm_point_pair), and the
psi-twisted cycle is the tuple of (psi(class), RM point) pairs.

Two independent algorithms compute the intersection number of a closed
geodesic on Y0(p) with the winding geodesic from 0 to infinity:

* intersect_winding_cycle sums sgn(a) over the forms in the proper
  Gamma0(p)-class of Q whose root geodesic separates 0 from infinity
  (those with a*c < 0).  It finds them in one walk along the river of
  the Conway topograph of Q.form, one automorph period long, carrying
  only the transition matrix mod p; an edge counts when a column of
  that matrix lies in the orbit of infinity in P^1(F_p) under the
  automorph;
* intersect_winding_enum walks the Farey tessellation along one period
  of the closed geodesic, in the original coordinates and without
  reducing the form, and adds up signed crossings with translates of the
  imaginary axis.  A Farey vertex (x, y) lies between the roots exactly
  when f(x, y) * a < 0, the period ends at the stabilizer's image of
  the first crossed edge, and the sides of a crossed edge's pull-back
  are signs of numbers x + y sqrt(disc) with integer x, y.

Everything is integer arithmetic; the roots of f are never built.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import is_prime
from .field import QuadForm, _divisors, automorph, reduce_form

__all__ = [
    "ClosedGeodesic",
    "InertPrime",
    "RChoice",
    "choose_r",
    "rm_point",
    "rm_point_pair",
    "twisted_cycle",
    "gamma0_automorph",
    "intersect_winding_cycle",
    "intersect_winding_enum",
]


class InertPrime(Exception):
    """The rational prime is inert in F; the whole series vanishes."""


class ClosedGeodesic:
    """Oriented closed geodesic on Y0(p): a primitive form whose sign is
    the orientation, which runs from the plus root (-b + sqrt(disc))/(2a)
    to the minus root.  Negating the form reverses the geodesic."""

    __slots__ = ("form", "p")

    def __init__(self, form, p):
        form, _ = form.primitive()
        if form.disc() <= 0 or math.isqrt(form.disc()) ** 2 == form.disc():
            raise ValueError("form must have positive nonsquare discriminant")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

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

    def translate(self, g):
        """The geodesic g^{-1} . Q for g in Gamma0(p) (det 1)."""
        assert g.det == 1 and g.c % self.p == 0
        return ClosedGeodesic(self.form.apply(g), self.p)

    def __repr__(self):
        return "ClosedGeodesic(form=%r, p=%d)" % (self.form, self.p)


class RChoice(tuple):
    """Output of choose_r: (r, N0)."""

    def __new__(cls, r, N0):
        return tuple.__new__(cls, (r, N0))

    @property
    def r(self):
        return self[0]

    @property
    def N0(self):
        return self[1]


def choose_r(F, p, r=None):
    """A square root r of d_F mod 4p with r^2 > d_F: the given one, which
    is checked, or else the smallest positive one.

    Raises ValueError when p is not an odd prime unramified in F or r is
    not such a root, and InertPrime when d_F is not a square mod p.
    """
    d = F.d_F
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if d % p == 0:
        raise ValueError("p ramifies in F")
    if pow(d, (p - 1) // 2, p) != 1:
        raise InertPrime("d_F = %d is a nonresidue mod %d" % (d, p))
    if r is None:
        r = 1
        while (r * r - d) % (4 * p) or r * r <= d:
            r += 1
    elif (r * r - d) % (4 * p) or r * r <= d:
        raise ValueError("invalid square root r = %d of d_F mod 4p" % r)
    return RChoice(r, (r * r - d) // 2)


def rm_point(F, G, cls, p, rc, sign=1):
    """RM point of the given narrow class: a ClosedGeodesic whose form
    satisfies p | a and b = -r (mod 2p), with deterministic search order.
    """
    d = F.d_F
    r = sign * rc.r
    for k in _spiral():
        b = -r + 2 * p * k
        m = (b * b - d) // 4
        if m == 0:
            continue
        assert (b * b - d) % 4 == 0 and m % p == 0
        for e in _divisors(abs(m)):
            if e % p:
                continue
            for a in (e, -e):
                f = QuadForm(a, b, m // a)
                if f.content() == 1 and G.classify(f) == cls:
                    return ClosedGeodesic(f, p)


def _spiral():
    yield 0
    k = 1
    while k < 10000:
        yield k
        yield -k
        k += 1
    raise RuntimeError("rm point search exhausted")


def rm_point_pair(F, G, cls, p, rc):
    """The RM points (plus, minus) of the class for +r and -r."""
    return rm_point(F, G, cls, p, rc, +1), rm_point(F, G, cls, p, rc, -1)


def twisted_cycle(F, G, psi, p, rc):
    """The psi-twisted cycle: (psi(cls), Q) for the +r and the -r RM point
    Q of each narrow class."""
    if not psi.totally_odd:
        raise ValueError("character is not totally odd")
    return tuple((psi(cls), Q) for cls in range(G.h)
                 for Q in rm_point_pair(F, G, cls, p, rc))


# ---------------------------------------------------------------------------
# algorithm 1: one walk along the river of the Conway topograph
#
# Let f = Q.form.  The forms with a*c < 0 in the proper SL2(Z)-class of f
# are the edges of the river of f's topograph: the edge between the
# faces e1 (value a > 0) and e2 (value c < 0) stands for the two forms
# [a, b, c] = f.apply(m), m = (e1 | e2), and [c, -b, a] = f.apply(m S),
# S = (0, -1; 1, 0).  The automorph of f shifts the river by one period,
# so one period meets every such form exactly once.  A form f.apply(m)
# lies in the Gamma0(p)-class of f exactly when some automorph power
# times m lies in Gamma0(p), that is when the first column of m, as a
# point of P^1(F_p), lies in the orbit of infinity = (1 : 0) under the
# automorph.


@lru_cache(maxsize=None)
def _inverses(p):
    return [0] + [pow(i, -1, p) for i in range(1, p)]


def _p1_key(x, y, p, inv):
    """Index in 0..p of the point (x : y) of P^1(F_p); p is infinity."""
    return p if y % p == 0 else x * inv[y % p] % p


def _cusp_orbit(A, p):
    """Membership table, indexed by _p1_key, of the orbit of infinity
    under A acting on P^1(F_p)."""
    inv = _inverses(p)
    a, b, c, d = A.mod(p)
    hit = bytearray(p + 1)
    x, y = 1, 0
    while True:
        k = _p1_key(x, y, p, inv)
        if hit[k]:
            # A permutes P^1(F_p), so the first repeat closes the orbit
            return hit
        hit[k] = 1
        x, y = (a * x + b * y) % p, (c * x + d * y) % p


def gamma0_automorph(form, p):
    """Generator of the stabilizer of form in Gamma0(p): the least power
    of the totally positive automorph A that lies in Gamma0(p).  A^k is
    in Gamma0(p) exactly when it fixes infinity in P^1(F_p), so k is the
    length of the orbit of infinity under A."""
    A = automorph(form)
    return A ** sum(_cusp_orbit(A, p))


def intersect_winding_cycle(Q):
    """Winding intersection number by one walk along the river: the sum
    of sgn(a) over the forms [a, b, c] with a*c < 0 in the Gamma0(p)-class
    of Q.form.  The class of -f holds the negatives of the forms in the
    class of f, so reversing Q negates the sum."""
    p = Q.p
    inv = _inverses(p)
    hit = _cusp_orbit(automorph(Q.form), p)
    (a, b, c), m = reduce_form(Q.form)     # reduced, so a*c < 0
    # the transition matrix from Q.form, mod p, by columns (x0, y0), (x1, y1)
    x0, x1, y0, y1 = m.mod(p)
    if a < 0:
        a, b, c = c, -b, a
        x0, x1, y0, y1 = x1, -x0 % p, y1, -y0 % p
    start = (a, b, c)
    total = 0
    while True:
        # [a, b, c] counts +1 and [c, -b, a] counts -1 (_p1_key inlined)
        total += (hit[x0 * inv[y0] % p if y0 else p]
                  - hit[x1 * inv[y1] % p if y1 else p])
        s = a + b + c               # value on e1 + e2, never 0
        if s > 0:
            a, b = s, b + 2 * c     # e1 <- e1 + e2
            x0, y0 = (x0 + x1) % p, (y0 + y1) % p
        else:
            b, c = b + 2 * a, s     # e2 <- e1 + e2
            x1, y1 = (x0 + x1) % p, (y0 + y1) % p
        if (a, b, c) == start:
            return total


# ---------------------------------------------------------------------------
# algorithm 2: Farey tessellation walk along one period of the geodesic
#
# Translates of the imaginary axis by Gamma0(p) are exactly the Farey
# edges (u, v) (|cross(u, v)| = 1) for which exactly one endpoint has
# denominator divisible by p (infinity = 1/0 counts as divisible).  The
# geodesic of f = [a, b, c] crosses the Farey edge (u, v) exactly when
# one end lies between the roots and the other does not, and the point
# (x, y) lies between the roots exactly when f(x, y) * a < 0.  The
# crossed edges, in order along the geodesic, form a sequence that the
# stabilizer gamma shifts by one period; so the walk starts at a crossed
# edge E0, counts it, and steps from triangle to triangle until the
# edge it reaches is gamma E0 or gamma^-1 E0, whichever lies ahead.  An
# edge delta(infinity, 0) counts by the sides of the imaginary axis on
# which delta^-1 puts the plus and the minus root.


def _sign(x, y, D):
    """The sign of x + y sqrt(D), for D > 0 not a square."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or not sx:
        return sy
    if not sy:
        return sx
    # opposite signs: x^2 = D y^2 is impossible
    return sx if x * x > D * y * y else sy


def _edge_sign(edge, f, D, p):
    """Intersection of the pull-back of the geodesic of f, of discriminant
    D, through the edge's coset rep with the winding geodesic from 0 to
    infinity: +1 if it runs from the positive half line to the negative
    one, -1 the other way, 0 if it does not cross or the edge is not a
    Gamma0(p) translate of the imaginary axis."""
    (un, ud), (vn, vd) = edge
    up, vp = ud % p == 0, vd % p == 0
    if up == vp:
        assert not (up and vp)
        return 0
    if vp:
        (un, ud), (vn, vd) = (vn, vd), (un, ud)
    if un * vd - vn * ud == -1:
        vn, vd = -vn, -vd
    # the coset rep (un, vn; ud, vd) has inverse (vd, -vn; -ud, un), which
    # takes the root (-b +- sqrt(D))/(2a) to (vd w - vn)/(un - ud w); with
    # both factors scaled by 2a its sign is that of
    # (-vd b - 2a vn +- vd sqrt(D)) * (2a un + ud b -+ ud sqrt(D))
    assert un * vd - vn * ud == 1 and ud % p == 0
    a, b, _ = f
    x0, x1 = -vd * b - 2 * a * vn, 2 * a * un + ud * b
    plus = _sign(x0, vd, D) * _sign(x1, -ud, D)
    minus = _sign(x0, -vd, D) * _sign(x1, ud, D)
    assert plus and minus, "pulled-back endpoint at 0 or infinity"
    return (plus - minus) // 2


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


def intersect_winding_enum(Q):
    """Winding intersection number by direct enumeration of crossings:
    the sum of _edge_sign over the Farey edges that one period of the
    geodesic crosses."""
    f = Q.form
    a, D = f.a, f.disc()
    gamma, p = Q.gamma, Q.p

    def inside(t):
        return f.value(*t) * a < 0

    edge = _start_edge(f, D, inside)
    stops = []
    for m in (gamma, gamma.adjugate()):     # gamma and gamma^-1 (det 1)
        s, t = (_norm_pt((m.a * x + m.b * y, m.c * x + m.d * y))
                for x, y in edge)
        stops += [(s, t), (t, s)]
    u, v = edge
    tprev = _norm_pt((u[0] - v[0], u[1] - v[1]))
    total = 0
    while edge not in stops:
        total += _edge_sign(edge, f, D, p)
        # step across the current edge into the next Farey triangle
        u, v = edge
        t = _norm_pt((u[0] + v[0], u[1] + v[1]))
        if t == tprev:
            t = _norm_pt((u[0] - v[0], u[1] - v[1]))
        if inside(t) != inside(u):
            edge, tprev = (u, t), v
        else:
            edge, tprev = (t, v), u
    return total
