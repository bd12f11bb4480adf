"""Real quadratic field data and the narrow class group.

The class group backend is forms-only: narrow ideal classes are represented
by proper equivalence classes of primitive integral binary quadratic forms
of discriminant d_F.  Reduced forms [+-a, b, c] are built only for the
divisors a of (d_F - b^2)/4 in the reduction window
(s - b)/2 < a <= (s + b)/2, s = isqrt(d_F).  A class is its rho cycle of
reduced forms, kept with each step's delta (the step from f to the next form
is f.apply((0, -1; 1, delta))): the sum of the deltas gives the partial zeta
value.  Reductions keep deltas only; ``_steps`` turns them into the matrix
of ``reduce_form`` and, around the principal cycle, the Pell unit.  Two
classes compose on demand, with no table, by the united-form formula
(``gauss_compose``); the characters are built by extending from one
subgroup to the next (``all_characters``).  Ideals enter as forms or as
Z-bases [a0, (-b0 + sqrt(d))/2].  Units are integer pairs: (x, y) stands
for (x + y sqrt(d_F))/2.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from .exact import DomainError, Mat2, divisors, squarefree_part, xgcd

__all__ = [
    "FieldData",
    "QuadForm",
    "NarrowClassGroup",
    "ClassCharacter",
    "build_field",
    "narrow_class_group",
    "all_characters",
    "odd_characters",
    "class_of_ideal",
    "pell_plus",
    "automorph",
    "reduce_form",
    "form_cycle",
]


class QuadForm(tuple):
    """Integral binary quadratic form a x^2 + b xy + c y^2."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        return tuple.__new__(cls, (a, b, c))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))

    def disc(self):
        return self[1] * self[1] - 4 * self[0] * self[2]

    def content(self):
        return math.gcd(math.gcd(abs(self[0]), abs(self[1])), abs(self[2]))

    def primitive(self):
        g = self.content()
        if g == 1:
            return self, 1
        return QuadForm(self[0] // g, self[1] // g, self[2] // g), g

    def apply(self, m):
        """Right action: (f.apply(m))(x, y) = f(m11 x + m12 y, m21 x + m22 y)."""
        a, b, c = self
        p, q, r, s = m
        return QuadForm(a * p * p + b * p * r + c * r * r,
                        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
                        a * q * q + b * q * s + c * s * s)

    def __repr__(self):
        return "QuadForm(%d, %d, %d)" % self


def _is_reduced(f, s):
    # indefinite reduction |sqrt(D) - 2|a|| < b < sqrt(D), with
    # s = isqrt(D) and D not a square
    a, b, _ = f
    return 0 < b <= s and s - b < 2 * abs(a) <= s + b


def _rho(f, D, s):
    """One reduction step of f, of discriminant D with s = isqrt(D);
    returns (g, delta) with g = f.apply((0, -1; 1, delta))."""
    a, b, c = f
    ac = abs(c)
    # pick b' = -b mod 2|c| inside the reduction window
    lo = (-ac + 1) if ac > s else (s - 2 * ac + 1)
    bp = lo + ((-b - lo) % (2 * ac))
    delta = (bp + b) // (2 * c)
    cp = (bp * bp - D) // (4 * c)
    # f.apply((0, -1; 1, delta)) == (c, bp, cp), entry by entry
    assert -b + 2 * c * delta == bp and a - b * delta + c * delta * delta == cp
    return QuadForm(c, bp, cp), delta


def _steps(deltas):
    """The product of the reduction steps (0, -1; 1, delta), in order."""
    # right multiplication by a step: the columns (x0, y0), (x1, y1)
    # become (x1, y1), (delta x1 - x0, delta y1 - y0)
    x0, x1, y0, y1 = 1, 0, 0, 1
    for delta in deltas:
        x0, x1 = x1, delta * x1 - x0
        y0, y1 = y1, delta * y1 - y0
    return Mat2(x0, x1, y0, y1)


def _reduce(f):
    """Reduce an indefinite form; returns (g, deltas) with g reduced and
    f.apply(_steps(deltas)) = g, building no matrix."""
    D = f.disc()
    s = math.isqrt(D)
    g, deltas = f, []
    for _ in range(10000):
        if _is_reduced(g, s):
            return g, deltas
        g, delta = _rho(g, D, s)
        deltas.append(delta)
    raise RuntimeError("reduction did not terminate for %r" % (f,))


def reduce_form(f):
    """_reduce with its steps multiplied out: (g, m), f.apply(m) = g."""
    g, deltas = _reduce(f)
    return g, _steps(deltas)


def form_cycle(f):
    """The cycle of reduced forms properly equivalent to f, in rho order,
    and the delta of each step: deltas[i] takes forms[i] to the next form,
    the last one back to forms[0].  A reduced form has 0 < b <= s and
    |a| <= s, so a cycle has at most 2 s^2 forms; a walk that has not
    closed by then raises RuntimeError."""
    D = f.disc()
    s = math.isqrt(D)
    forms, deltas = [_reduce(f)[0]], []
    for _ in range(2 * s * s):
        g, delta = _rho(forms[-1], D, s)
        deltas.append(delta)
        if g == forms[0]:
            return forms, deltas
        forms.append(g)
    raise RuntimeError("reduction cycle did not close for %r" % (f,))


@lru_cache(maxsize=None)
def pell_plus(D):
    """Smallest (t, u), t, u > 0, with t^2 - D u^2 = 4.

    Gives the fundamental totally positive unit (t + u sqrt(D))/2 of the
    order of discriminant D.  Obtained as the product of the steps around
    the reduced cycle of the principal form, which is the fundamental
    automorph; brute-forcing u is far too slow once the regulator grows.
    """
    assert D > 0 and math.isqrt(D) ** 2 != D
    b0 = D % 2
    forms, deltas = form_cycle(QuadForm(1, b0, (b0 * b0 - D) // 4))
    g, m = forms[0], _steps(deltas)
    assert g.apply(m) == g
    t = abs(m.a + m.d)
    u = abs(m.c) // abs(g.a)
    assert t * t - D * u * u == 4 and u > 0
    return t, u


def automorph(f):
    """Generator of the proper automorphism group of f (trace > 2)."""
    fp, _ = f.primitive()
    t, u = pell_plus(fp.disc())
    a, b, c = fp
    return Mat2((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2)


class FieldData:
    """Invariants of Q(sqrt(D)); unit = (x, y) is (x + y sqrt(d_F))/2."""

    def __init__(self, D, d_F, unit, unit_norm):
        self.D = D
        self.d_F = d_F
        self.unit = unit
        self.unit_norm = unit_norm

    def __repr__(self):
        return "FieldData(D=%d, d_F=%d, unit_norm=%+d)" % (self.D, self.d_F, self.unit_norm)


def build_field(D):
    if D <= 1:
        raise DomainError("D must exceed 1")
    s, f = squarefree_part(D)
    if f != 1:
        raise DomainError("D must be squarefree")
    d_F = D if D % 4 == 1 else 4 * D
    # pell_plus (t + u sqrt(d_F))/2 is eps**2 when the fundamental unit
    # eps = (s + v sqrt(d_F))/2 has norm -1, and then t = s^2 + 2, u = s v
    t, u = pell_plus(d_F)
    s = math.isqrt(t - 2)
    if s * s == t - 2 and u % s == 0 and s * s - d_F * (u // s) ** 2 == -4:
        return FieldData(D, d_F, (s, u // s), -1)
    return FieldData(D, d_F, (t, u), 1)


def _reduced_forms(D):
    out = []
    s = math.isqrt(D)
    # b = D (mod 2) and 0 < b <= s, so m = (b^2 - D)/4 < 0; forms are built
    # only for divisors a of -m in _is_reduced's window lo < a <= hi
    for b in range(2 - D % 2, s + 1, 2):
        m = (b * b - D) // 4
        lo, hi = (s - b) // 2, (s + b) // 2
        for a in divisors(-m):
            if lo < a <= hi and math.gcd(math.gcd(a, b), m // a) == 1:
                out.append(QuadForm(a, b, m // a))
                out.append(QuadForm(-a, b, -(m // a)))
    return out


def gauss_compose(f1, f2):
    """Dirichlet composition of primitive forms of equal discriminant D.

    The united-form formula (Shanks; Cohen, GTM 138, 5.4.7): with
    e = gcd(a1, a2, (b1 + b2)/2) = x a1 + y a2 + z (b1 + b2)/2 the product
    is [A, B, (B^2 - D)/(4A)] with A = a1 a2 / e^2 and
    B = (x a1 b2 + y a2 b1 + z (b1 b2 + D)/2) / e.
    """
    D = f1.disc()
    assert D == f2.disc()
    a1, b1, _ = f1
    a2, b2, _ = f2
    g, x, y = xgcd(a1, a2)
    e, u, z = xgcd(g, (b1 + b2) // 2)
    num = u * (x * a1 * b2 + y * a2 * b1) + z * ((b1 * b2 + D) // 2)
    assert num % e == 0
    A, B = a1 * a2 // (e * e), num // e
    assert (B * B - D) % (4 * A) == 0
    out = QuadForm(A, B, (B * B - D) // (4 * A))
    assert out.content() == 1
    return out


class NarrowClassGroup:
    """Cl(F)^+ as proper classes of primitive forms of discriminant d_F.

    Each class is its rho cycle, kept as the (forms, deltas) of
    form_cycle from its least reduced form.  Classes compose and invert
    on demand; the group keeps its positive reps, sigma and the class of
    (sqrt(d_F)), computed when it is built.
    """

    def __init__(self, field, cycles):
        self.field = field
        self.cycles = cycles
        self._class_of = {g: i for i, (forms, _) in enumerate(cycles)
                          for g in forms}
        # the signs of a alternate around a cycle: each has a positive form
        self._positive = [next(f for f in forms if f.a > 0)
                          for forms, _ in cycles]
        # (sqrt(d)) has Z-basis [d, (d + sqrt(d))/2] for odd d; for even d,
        # (sqrt(d)/2) = [d/4, sqrt(d)/2] is in its class, since 2 >> 0
        d = field.d_F
        f = QuadForm(d, -d, (d - 1) // 4) if d % 2 else QuadForm(d // 4, 0, -1)
        self.class_of_principal_sqrt_dF = s = self.classify(f)
        self._sigma = [self.compose(self.inverse(i), s)
                       for i in range(self.h)]

    @property
    def h(self):
        return len(self.cycles)

    def classify(self, form):
        if form.disc() != self.field.d_F:
            raise ValueError("discriminant mismatch")
        fp, _ = form.primitive()
        return self._class_of[_reduce(fp)[0]]

    def compose(self, i, j):
        """The class of the united form of the positive reps of i and j."""
        f = gauss_compose(self._positive[i], self._positive[j])
        return self._class_of[_reduce(f)[0]]

    def inverse(self, i):
        """The class of the opposite form [a, -b, c] of a rep of i."""
        a, b, c = self._positive[i]
        return self.classify(QuadForm(a, -b, c))

    def sigma(self, i):
        """c^-1 s, s the class of (sqrt(d_F)): the class of -f, f in i."""
        return self._sigma[i]

    def positive_rep(self, i):
        """The first form of the cycle with positive leading coefficient."""
        return self._positive[i]


def narrow_class_group(F):
    d = F.d_F
    cycles = []
    seen = set()
    for f in _reduced_forms(d):
        if f in seen:
            continue
        forms, deltas = form_cycle(f)
        seen.update(forms)
        # from its least form, where the search for its positive rep starts
        k = forms.index(min(forms))
        cycles.append((forms[k:] + forms[:k], deltas[k:] + deltas[:k]))
    # the principal class first, the others by their least reduced form
    b0 = d % 2
    principal, _ = _reduce(QuadForm(1, b0, (b0 * b0 - d) // 4))
    cycles.sort(key=lambda cyc: (principal not in cyc[0], cyc[0][0]))
    G = NarrowClassGroup(F, cycles)
    assert G.classify(principal) == 0, "principal class not first"
    return G


def class_of_ideal(G, spec):
    """Narrow class index of the ideal with Z-basis [a0, (-b0 + sqrt(d))/2],
    spec = (a0, b0); a form's class is G.classify(form)."""
    a0, b0 = spec
    d = G.field.d_F
    assert (b0 * b0 - d) % (4 * a0) == 0
    return G.classify(QuadForm(a0, b0, (b0 * b0 - d) // (4 * a0)))


_TRACES = {1: (2,), 2: (2, -2), 3: (2, -1, -1), 4: (2, 0, -2, 0),
           6: (2, 1, -1, -2, -1, 1)}


class ClassCharacter:
    """A character of the narrow class group.

    Stored as exact exponents: the value on class i is
    exp(2 pi i * exponents[i] / order).  The series and the constant term
    read it only through the integer trace(i); psi(i) itself is +-1
    where it is real and a DomainError where it is not.
    """

    def __init__(self, group, exponents, modulus):
        self.group = group
        g = modulus
        for e in exponents:
            g = math.gcd(g, e)
        self.exponents = tuple(e // g for e in exponents)
        self.order = modulus // g

    def __call__(self, i):
        e, m = self.exponents[i], self.order
        if 2 * e % m:
            raise DomainError("character of order %d is not real on class "
                              "%d: only psi + conj(psi) is exact" % (m, i))
        return 1 if e % m == 0 else -1

    def trace(self, i):
        """psi(i) + conj(psi(i)) = 2 cos(2 pi e / m), an integer for the
        orders m = 1, 2, 3, 4, 6, where phi(m) <= 2; DomainError for others."""
        if self.order not in _TRACES:
            raise DomainError("characters of order %d are not supported: "
                              "psi + conj(psi) is not an integer" % self.order)
        return _TRACES[self.order][self.exponents[i]]

    @property
    def totally_odd(self):
        ex = self.exponents[self.group.class_of_principal_sqrt_dF]
        return 2 * ex % self.order == 0 and ex % self.order != 0

    def inverse(self):
        return ClassCharacter(self.group,
                              [(-e) % self.order for e in self.exponents],
                              self.order)

    def is_trivial(self):
        return all(e % self.order == 0 for e in self.exponents)

    def __repr__(self):
        return "ClassCharacter(order=%d, exponents=%r)" % (self.order, self.exponents)


def _first_power_in(G, x, H):
    """(t, x^t) for the least t >= 1 with x^t in the set of classes H;
    t <= h, so a longer walk raises RuntimeError instead of hanging."""
    y = x
    for t in range(1, G.h + 1):
        if y in H:
            return t, y
        y = G.compose(y, x)
    raise RuntimeError("no power of class %d is in the subgroup" % x)


def all_characters(G):
    """All h characters, as exponent vectors over m = h, a multiple of
    every order, to which ClassCharacter reduces them.

    Built one subgroup at a time: when x has order t modulo H, each
    character chi of H extends to <H, x> in t ways,
    chi(x) = chi(x^t)/t + k m/t for 0 <= k < t, on the cosets y x^j of
    H, composed once for all characters.  Sorted by exponents.
    """
    m = G.h
    # H = {0} as a list, the place of each class in it, and the one
    # character of H, as its exponents mod m on that list
    H, place, chars = [0], {0: 0}, [[0]]
    for x in range(G.h):
        if x in place:
            continue
        t, xt = _first_power_in(G, x, place)
        cosets = []
        for y in H:                 # y, y x, ..., y x^(t-1)
            cosets.append(y)
            for _ in range(t - 1):
                cosets.append(G.compose(cosets[-1], x))
        k = place[xt]
        assert all(chi[k] % t == 0 for chi in chars)
        chars = [[(ey + j * ex) % m for ey in chi for j in range(t)]
                 for chi in chars for ex in range(chi[k] // t, m, m // t)]
        H, place = cosets, {y: i for i, y in enumerate(cosets)}
    assert len(place) == len(chars) == G.h, "character count mismatch"
    exps = sorted(tuple(chi[place[i]] for i in range(G.h)) for chi in chars)
    return [ClassCharacter(G, ex, m) for ex in exps]


def odd_characters(G):
    """Characters that are finite parts of totally odd Hecke characters.

    Criterion: value -1 on the class of the principal ideal (sqrt(d_F)).
    Empty when the fundamental unit has norm -1.
    """
    return [ch for ch in all_characters(G) if ch.totally_odd]
