"""Real quadratic field data and the narrow class group.

The class group backend is forms-only: narrow ideal classes are
represented by proper equivalence classes of primitive integral binary
quadratic forms of discriminant d_F, each the rho cycle of its reduced
forms.  The group table composes forms by the united-form formula
(``gauss_compose``); the characters are built by extending from one
subgroup to the next (``all_characters``).  Ideals enter as Z-bases and
are converted to forms through a fixed orientation convention.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .exact import Mat2, QuadIrr, squarefree_part

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
    "ideal_to_form",
    "pell_plus",
    "automorph",
    "reduce_form",
    "form_cycle",
]


class QuadForm(tuple):
    """Integral binary quadratic form a x^2 + b xy + c y^2."""

    def __new__(cls, a, b, c):
        return tuple.__new__(cls, (a, b, c))

    @property
    def a(self):
        return self[0]

    @property
    def b(self):
        return self[1]

    @property
    def c(self):
        return self[2]

    def disc(self):
        return self[1] * self[1] - 4 * self[0] * self[2]

    def content(self):
        return math.gcd(math.gcd(abs(self[0]), abs(self[1])), abs(self[2]))

    def primitive(self):
        g = self.content()
        return QuadForm(self[0] // g, self[1] // g, self[2] // g), g

    def apply(self, m):
        """Right action: (f.apply(m))(x, y) = f(m11 x + m12 y, m21 x + m22 y)."""
        a, b, c = self
        p, q, r, s = m.a, m.b, m.c, m.d
        return QuadForm(a * p * p + b * p * r + c * r * r,
                        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
                        a * q * q + b * q * s + c * s * s)

    def value(self, x, y):
        return self[0] * x * x + self[1] * x * y + self[2] * y * y

    def plus_root(self):
        """The root (-b + sqrt(disc)) / (2a)."""
        return QuadIrr(-self[1], 1, 2 * self[0], self.disc())

    def minus_root(self):
        return QuadIrr(-self[1], -1, 2 * self[0], self.disc())

    def __repr__(self):
        return "QuadForm(%d, %d, %d)" % self


def _is_reduced(f):
    # indefinite reduction: |sqrt(D) - 2|a|| < b < sqrt(D)
    a, b, c = f
    D = f.disc()
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a) - b
    return (t < 0 or t * t < D) and D < (2 * abs(a) + b) ** 2


def _rho(f):
    """One reduction step; returns (form, matrix) with f.apply(m) = form."""
    a, b, c = f
    D = f.disc()
    ac = abs(c)
    s = math.isqrt(D)
    # pick b' = -b mod 2|c| inside the reduction window
    lo = (-ac + 1) if ac > s else (s - 2 * ac + 1)
    bp = lo + ((-b - lo) % (2 * ac))
    delta = (bp + b) // (2 * c)
    cp = (bp * bp - D) // (4 * c)
    m = Mat2(0, -1, 1, delta)
    g = QuadForm(c, bp, cp)
    assert f.apply(m) == g
    return g, m


def reduce_form(f):
    """Reduce an indefinite form; returns (g, m) with f.apply(m) = g reduced."""
    m = Mat2.identity()
    g = f
    for _ in range(10000):
        if _is_reduced(g):
            return g, m
        g, step = _rho(g)
        m = m * step
    raise RuntimeError("reduction did not terminate for %r" % (f,))


def form_cycle(f):
    """The cycle of reduced forms properly equivalent to f, in rho order."""
    g, _ = reduce_form(f)
    cyc = [g]
    h, _ = _rho(g)
    while h != g:
        cyc.append(h)
        h, _ = _rho(h)
    return cyc


@lru_cache(maxsize=None)
def pell_plus(D):
    """Smallest (t, u), t, u > 0, with t^2 - D u^2 = 4.

    Gives the fundamental totally positive unit (t + u sqrt(D))/2 of the
    order of discriminant D.  Obtained as the product of the transition
    matrices around one period of the reduction cycle of the principal
    form, which is the fundamental automorph; brute-forcing u is far too
    slow once the regulator grows.
    """
    assert D > 0 and squarefree_part(D)[0] != 1
    b0 = D % 2
    g, _ = reduce_form(QuadForm(1, b0, (b0 * b0 - D) // 4))
    cur, m = g, Mat2.identity()
    while True:
        cur, step = _rho(cur)
        m = m * step
        if cur == g:
            break
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
    """Invariants of the real quadratic field Q(sqrt(D))."""

    def __init__(self, D, d_F, lam, eps, eps_plus, unit_norm):
        self.D = D
        self.d_F = d_F
        self.lam = lam
        self.eps = eps
        self.eps_plus = eps_plus
        self.unit_norm = unit_norm

    def __repr__(self):
        return "FieldData(D=%d, d_F=%d, unit_norm=%+d)" % (self.D, self.d_F, self.unit_norm)


def build_field(D):
    if D <= 1:
        raise ValueError("D must exceed 1")
    s, f = squarefree_part(D)
    if f != 1:
        raise ValueError("D must be squarefree")
    d_F = D if D % 4 == 1 else 4 * D
    lam = QuadIrr(d_F, 1, 2, d_F)
    # eps_plus = (t + u sqrt(d_F))/2 is eps**2 when the fundamental unit
    # eps = (s + v sqrt(d_F))/2 has norm -1, and then t = s^2 + 2, u = s v
    t, u = pell_plus(d_F)
    s = math.isqrt(t - 2)
    if s * s == t - 2 and u % s == 0 and s * s - d_F * (u // s) ** 2 == -4:
        eps = QuadIrr(s, u // s, 2, d_F)
        return FieldData(D, d_F, lam, eps, eps * eps, -1)
    eps = QuadIrr(t, u, 2, d_F)
    return FieldData(D, d_F, lam, eps, eps, 1)


def _reduced_forms(D):
    out = []
    s = math.isqrt(D)
    for b in range(1, s + 1):
        if (b - D) % 2:
            continue
        m = (b * b - D) // 4
        if m >= 0:
            continue
        for a in _divisors(-m):
            for aa in (a, -a):
                c = m // aa
                f = QuadForm(aa, b, c)
                if f.content() == 1 and _is_reduced(f):
                    out.append(f)
    return out


def _divisors(n):
    assert n > 0
    ds = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            ds.append(i)
            if i != n // i:
                ds.append(n // i)
        i += 1
    return sorted(ds)


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
    g, x, y = _xgcd(a1, a2)
    e, u, z = _xgcd(g, (b1 + b2) // 2)
    num = u * (x * a1 * b2 + y * a2 * b1) + z * ((b1 * b2 + D) // 2)
    assert num % e == 0
    A, B = a1 * a2 // (e * e), num // e
    assert (B * B - D) % (4 * A) == 0
    out = QuadForm(A, B, (B * B - D) // (4 * A))
    assert out.content() == 1
    return out


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class NarrowClassGroup:
    """Cl(F)^+ as proper classes of primitive forms of discriminant d_F."""

    def __init__(self, field, reps, table, sqrt_class):
        self.field = field
        self.class_reps = reps
        self.group_table = table
        self.class_of_principal_sqrt_dF = sqrt_class
        # the reduced forms of a class make up its one rho cycle
        self._class_of = {g: i for i, r in enumerate(reps)
                          for g in form_cycle(r)}

    @property
    def h(self):
        return len(self.class_reps)

    def classify(self, form):
        if form.disc() != self.field.d_F:
            raise ValueError("discriminant mismatch")
        fp, _ = form.primitive()
        return self._class_of[reduce_form(fp)[0]]

    def compose(self, i, j):
        return self.group_table[i][j]

    def identity_index(self):
        for i in range(self.h):
            if all(self.group_table[i][j] == j for j in range(self.h)):
                return i
        raise RuntimeError("no identity")

    def inverse(self, i):
        e = self.identity_index()
        for j in range(self.h):
            if self.group_table[i][j] == e:
                return j
        raise RuntimeError("no inverse")

    def positive_rep(self, i):
        """A representative form with positive leading coefficient."""
        for f in form_cycle(self.class_reps[i]):
            if f.a > 0:
                return f
        raise RuntimeError("cycle has no positive form")


def narrow_class_group(F):
    d = F.d_F
    forms = _reduced_forms(d)
    cycles = []
    seen = set()
    for f in forms:
        if f in seen:
            continue
        cyc = form_cycle(f)
        seen.update(cyc)
        cycles.append(cyc)
    # the principal class first, the others by their least reduced form
    b0 = d % 2
    principal, _ = reduce_form(QuadForm(1, b0, (b0 * b0 - d) // 4))
    cycles.sort(key=lambda cyc: (principal not in cyc, min(cyc)))
    classes = [min(cyc) for cyc in cycles]
    G = NarrowClassGroup(F, classes, None, None)
    positive = [G.positive_rep(i) for i in range(G.h)]
    G.group_table = [[G.classify(gauss_compose(fi, fj)) for fj in positive]
                     for fi in positive]
    G.class_of_principal_sqrt_dF = _sqrt_class(F, G)
    return G


def _sqrt_class(F, G):
    # (sqrt(d)) has Z-basis [d, (d + sqrt(d))/2] for odd d; for even d,
    # (sqrt(d)/2) = [d/4, sqrt(d)/2] is in its class, since 2 >> 0
    d = F.d_F
    f = QuadForm(d, -d, (d - 1) // 4) if d % 2 else QuadForm(d // 4, 0, -1)
    return G.classify(f)


def ideal_to_form(d, w1, w2):
    """Form of the Z-module Z w1 + Z w2 (fractional ideal of disc-d order).

    Orientation: the basis is swapped if needed so that
    (w1 conj(w2) - conj(w1) w2)/sqrt(d) > 0; then
    f(x, y) = N(x w1 + y w2)/N(module).  With this convention the ideal
    [a0, (-b0 + sqrt(d))/2] maps to [a0, b0, (b0^2 - d)/(4 a0)].
    """
    rt = QuadIrr(0, 1, 1, d)
    orient = (w1 * w2.conjugate() - w1.conjugate() * w2) / rt
    assert orient.is_rational
    ov = orient.as_fraction()
    assert ov != 0
    if ov < 0:
        w1, w2 = w2, w1
        ov = -ov
    nm = ov  # norm of the module
    a = w1.norm() / nm
    b = (w1 * w2.conjugate() + w1.conjugate() * w2)
    assert b.is_rational
    b = b.as_fraction() / nm
    c = w2.norm() / nm
    assert a.denominator == b.denominator == c.denominator == 1
    f = QuadForm(int(a), int(b), int(c))
    assert f.disc() == d, (f.disc(), d)
    return f


def class_of_ideal(G, spec):
    """Narrow class index of an ideal.

    Accepts a QuadForm, a pair of integers (a0, b0) meaning the Z-basis
    [a0, (-b0 + sqrt(d))/2], or a pair of QuadIrr generators.
    """
    d = G.field.d_F
    if isinstance(spec, QuadForm):
        return G.classify(spec)
    w1, w2 = spec
    if isinstance(w1, int) and isinstance(w2, int):
        a0, b0 = w1, w2
        assert (b0 * b0 - d) % (4 * a0) == 0
        return G.classify(QuadForm(a0, b0, (b0 * b0 - d) // (4 * a0)))
    return G.classify(ideal_to_form(d, w1, w2))


class ClassCharacter:
    """A character of the narrow class group.

    Internally stored as exact exponents: the value on class i is
    exp(2 pi i * exponents[i] / modulus).  Calling the character yields
    exact integers +-1 when the order divides 2 and complex doubles
    otherwise.
    """

    def __init__(self, group, exponents, modulus):
        self.group = group
        g = modulus
        for e in exponents:
            g = math.gcd(g, e)
        self.exponents = tuple(e // g for e in exponents)
        self.modulus = modulus // g
        self.order = self.modulus

    def _value(self, ex):
        m = self.modulus
        if 2 * ex % m == 0:
            return 1 if ex % m == 0 else -1
        return cmath.exp(2j * cmath.pi * ex / m)

    def __call__(self, i):
        return self._value(self.exponents[i])

    @property
    def values(self):
        return tuple(self._value(e) for e in self.exponents)

    @property
    def totally_odd(self):
        ex = self.exponents[self.group.class_of_principal_sqrt_dF]
        return 2 * ex % self.modulus == 0 and ex % self.modulus != 0

    def inverse(self):
        return ClassCharacter(self.group,
                              [(-e) % self.modulus for e in self.exponents],
                              self.modulus)

    def is_trivial(self):
        return all(e % self.modulus == 0 for e in self.exponents)

    def __eq__(self, o):
        return (isinstance(o, ClassCharacter)
                and self.exponents == o.exponents
                and self.modulus == o.modulus)

    def __hash__(self):
        return hash((self.exponents, self.modulus))

    def __repr__(self):
        return "ClassCharacter(order=%d, exponents=%r)" % (self.order, self.exponents)


def _first_power_in(G, x, H):
    """(t, x^t) for the least t >= 1 with x^t in the set of classes H."""
    t, y = 1, x
    while y not in H:
        y, t = G.compose(y, x), t + 1
    return t, y


def all_characters(G):
    """All h characters, as exponent vectors over the group exponent m.

    Built one subgroup at a time: when x has order t modulo H, each
    character chi of H extends to <H, x> in t ways,
    chi(x) = chi(x^t)/t + k m/t for 0 <= k < t.  Sorted by exponents.
    """
    e = G.identity_index()
    m = 1
    for x in range(G.h):
        m = math.lcm(m, _first_power_in(G, x, {e})[0])
    # the characters of H = {e}, each a map class -> exponent mod m whose
    # keys are the classes of H
    chars = [{e: 0}]
    for x in range(G.h):
        if x in chars[0]:
            continue
        t, xt = _first_power_in(G, x, chars[0])
        grown = []
        for chi in chars:
            assert chi[xt] % t == 0
            for k in range(t):
                ex = chi[xt] // t + k * m // t
                ext = {}
                for y, ey in chi.items():
                    for _ in range(t):      # y x^j gets chi(y) + j ex
                        ext[y] = ey
                        y, ey = G.compose(y, x), (ey + ex) % m
                grown.append(ext)
        chars = grown
    assert len(chars) == G.h, "character count mismatch"
    exps = sorted(tuple(chi[i] for i in range(G.h)) for chi in chars)
    return [ClassCharacter(G, ex, m) for ex in exps]


def odd_characters(G):
    """Characters that are finite parts of totally odd Hecke characters.

    Criterion: value -1 on the class of the principal ideal (sqrt(d_F)).
    Empty when the fundamental unit has norm -1.
    """
    return [ch for ch in all_characters(G) if ch.totally_odd]
