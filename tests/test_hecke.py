import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqgeo.hecke
from rqgeo.exact import Mat2, squarefree_part
from rqgeo.field import QuadForm, build_field, narrow_class_group, odd_characters
from rqgeo.geodesic import (
    AlgorithmMismatch,
    ClosedGeodesic,
    choose_r,
    intersect_winding_cycle,
    intersect_winding_enum,
    manin_table,
    p1_key,
    rm_points,
    twisted_cycle,
)
from rqgeo.hecke import (
    _coset_key,
    double_cosets,
    hecke_translate,
    manin_pairings,
    merel_pairings,
    pair_with_twisted_cycle,
    right_cosets,
    sigma1,
)
from rqgeo.oracles import (
    _dual_stabilizer,
    manin_counts,
    merel_counts,
    minus_root,
    mobius,
    pairing_row,
    plus_root,
)


def _in_delta0(m, p):
    return m.det > 0 and m.c % p == 0 and math.gcd(m.a, p) == 1


def _same_coset(y, z, n, p):
    m = y.adjugate() * z
    return not any(e % n for e in m.entries()) and (m.c // n) % p == 0


def _brute_right_cosets(n, p):
    """Small-n oracle: every h s with h upper triangular, b running mod n,
    and s one of the p + 1 representatives of SL2(Z)/Gamma0(p),
    deduplicated by pairwise coset comparison."""
    sl2 = [Mat2(1, 0, j, 1) for j in range(p)] + [Mat2(0, -1, 1, 0)]
    reps = []
    for a in range(1, n + 1):
        if n % a:
            continue
        for b in range(n):
            h = Mat2(a, b, 0, n // a)
            for s in sl2:
                y = h * s
                if not _in_delta0(y, p):
                    continue
                if not any(_same_coset(y, z, n, p) for z in reps):
                    reps.append(y)
    return reps


def _random_gamma0(rng, p):
    return (Mat2(1, rng.randrange(-3, 4), 0, 1)
            * Mat2(1, 0, p * rng.randrange(-2, 3), 1)
            * Mat2(1, rng.randrange(-3, 4), 0, 1))


class TestSigma1:
    def test_plain(self):
        assert sigma1(1) == 1
        assert sigma1(6) == 12
        assert sigma1(12) == 28

    def test_deprived(self):
        assert sigma1(6, 5) == 12
        assert sigma1(5, 5) == 1
        assert sigma1(10, 5) == 3

    def test_rejects(self):
        with pytest.raises(ValueError):
            sigma1(0)


class TestRightCosets:
    def test_identity(self):
        assert right_cosets(1, 7) == (Mat2(1, 0, 0, 1),)

    def test_n2_p13(self):
        assert len(right_cosets(2, 13)) == 3

    def test_count_is_sigma1(self):
        # n = p^e m with p prime to m: p^e sigma1(m) cosets
        for p in (3, 5, 7, 11, 13):
            for n in range(1, 61):
                m, pe = n, 1
                while m % p == 0:
                    m, pe = m // p, pe * p
                assert len(right_cosets(n, p)) == pe * sigma1(m)

    def test_membership(self):
        for n, p in ((4, 5), (6, 11), (9, 13), (5, 5)):
            for y in right_cosets(n, p):
                assert y.det == n and _in_delta0(y, p)

    def test_pairwise_inequivalent(self):
        for n, p in ((6, 5), (8, 13), (12, 11)):
            reps = right_cosets(n, p)
            for i, y in enumerate(reps):
                for z in reps[i + 1:]:
                    assert not _same_coset(y, z, n, p)

    def test_brute_force_n2(self):
        # every det-2 matrix in Delta0(13) with small entries falls into
        # one of the enumerated cosets
        reps = right_cosets(2, 13)
        found = 0
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in (-13, 0, 13):
                    for d in range(-2, 3):
                        if a * d - b * c != 2 or math.gcd(a, 13) != 1:
                            continue
                        m = Mat2(a, b, c, d)
                        hits = [z for z in reps if _same_coset(m, z, 2, 13)]
                        assert len(hits) == 1
                        found += 1
        assert found > 0

    def test_closed_form_matches_brute_force(self):
        for p in (3, 5, 7, 11, 13):
            for n in range(1, 31):
                brute = _brute_right_cosets(n, p)
                closed = right_cosets(n, p)
                assert len(closed) == len(brute)
                for y in brute:
                    hits = [z for z in closed if _same_coset(y, z, n, p)]
                    assert len(hits) == 1

    def test_reps_are_their_own_keys(self):
        for p in (2, 3, 5, 13):
            for n in range(1, 41):
                for y in right_cosets(n, p):
                    assert y.b == 0 and y.a * y.d == n
                    assert _coset_key(*y.entries(), n, p) == (y.a, y.c)

    def test_key_equality_is_coset_equality(self):
        rng = random.Random(23)
        for n, p in ((6, 5), (12, 7), (9, 3), (10, 11), (13, 13)):
            reps = right_cosets(n, p)
            for _ in range(60):
                y = rng.choice(reps) * _random_gamma0(rng, p)
                z = rng.choice(reps) * _random_gamma0(rng, p)
                if rng.random() < 0.3:
                    z = y * _random_gamma0(rng, p)
                assert ((_coset_key(*y.entries(), n, p)
                         == _coset_key(*z.entries(), n, p))
                        == _same_coset(y, z, n, p))

    def test_delta0_right_gamma0_invariant(self):
        rng = random.Random(5)
        p = 7
        for _ in range(30):
            y = rng.choice(right_cosets(6, p))
            g = Mat2(1, rng.randrange(-3, 4), 0, 1) * Mat2(1, 0, p * rng.randrange(-2, 3), 1)
            assert _in_delta0(y * g, p)


def _base_geodesic(D, p, cls=0):
    F = build_field(D)
    G = narrow_class_group(F)
    return rm_points(F, G, p, choose_r(F, p))[cls]


def _translate_sum(cycle, n, count):
    """<T_n cycle, W> by one intersection algorithm alone."""
    return sum(coeff * sum(count(t) for t in hecke_translate(Q, n))
               for coeff, Q in cycle)


class TestDoubleCosets:
    def test_n1_single_orbit(self):
        Q = _base_geodesic(6, 5)
        assert len(double_cosets(Q, 1)) == 1

    def test_orbits_partition(self):
        Q = _base_geodesic(3, 11)
        for n in range(1, 21):
            reps = right_cosets(n, 11)
            orbits = double_cosets(Q, n)
            assert len(orbits) <= len(reps)
            # every coset is reachable from exactly one orbit rep
            covered = 0
            for y in reps:
                hits = 0
                for d in orbits:
                    g = Q.gamma
                    cur = d
                    for _ in range(len(reps) + 1):
                        if _same_coset(cur, y, n, 11):
                            hits += 1
                            break
                        cur = g * cur
                covered += (hits >= 1)
            assert covered == len(reps)

    @pytest.mark.parametrize("shift, match", [
        (lambda A, C, n, p: C + 1, None),
        # C left unreduced mod p n/A: still a multiple of p, so only the
        # count of the walked keys catches it
        (lambda A, C, n, p: C + p * (n // A), "permute"),
        # a key that stays inside the label set: the orbit walk never
        # leaves it, but the reps are no longer their own keys
        (lambda A, C, n, p: (C + p) % (p * (n // A)), "own key"),
    ], ids=["off_by_one", "unreduced", "inside_label_set"])
    def test_wrong_key_is_caught(self, monkeypatch, shift, match):
        # a key off the representatives' labels sends the orbit walk out
        # of the coset set, or fails right_cosets' own-key assert
        key = rqgeo.hecke._coset_key

        def mutant(a, b, c, d, n, p):
            A, C = key(a, b, c, d, n, p)
            return A, shift(A, C, n, p)
        if match == "own key":
            right_cosets.cache_clear()
        else:
            # cached reps, so the walk in double_cosets meets the mutant
            for n in range(2, 7):
                right_cosets(n, 5)
        monkeypatch.setattr(rqgeo.hecke, "_coset_key", mutant)
        Q = _base_geodesic(6, 5)
        with pytest.raises(AssertionError, match=match):
            for n in range(2, 7):
                double_cosets(Q, n)

    def test_coset_key_calls(self, monkeypatch):
        # each call walks the labels of n, one key per label: 2,887 over
        # every n <= 60
        p, N = 5, 60
        labels = sum(len(right_cosets(n, p)) for n in range(1, N + 1))
        assert labels == 2887
        key, calls = rqgeo.hecke._coset_key, []

        def counted(*args):
            calls.append(args)
            return key(*args)
        F = build_field(6)
        G = narrow_class_group(F)
        for Q in rm_points(F, G, p, choose_r(F, p)):
            with monkeypatch.context() as m:
                m.setattr(rqgeo.hecke, "_coset_key", counted)
                del calls[:]
                for n in range(1, N + 1):
                    pair_with_twisted_cycle(((1, Q),), n)
                count = len(calls)
            assert count == labels


class TestHeckeTranslate:
    def test_n1_is_q(self):
        Q = _base_geodesic(6, 5)
        (T1,) = hecke_translate(Q, 1)
        assert T1.form == Q.form

    def test_disc_divides(self):
        Q = _base_geodesic(7, 3)
        for n in (2, 4, 5, 8):
            for t in hecke_translate(Q, n):
                d2 = t.form.disc()
                assert (n * n * 28) % d2 == 0
                q, r = divmod(n * n * 28, d2)
                assert r == 0 and math.isqrt(q) ** 2 == q

    def test_irrational_endpoints(self):
        Q = _base_geodesic(3, 13)
        for t in hecke_translate(Q, 6):
            disc = t.form.disc()
            assert math.isqrt(disc) ** 2 != disc

    def test_rejects_nonpositive_n(self):
        # n = 0 used to divide by zero in _coset_key, and n = -2 gave a
        # translate of determinant -2
        Q = _base_geodesic(6, 5)
        cycle = ((1, Q),)
        for n in (0, -2):
            for call in (lambda: double_cosets(Q, n),
                         lambda: hecke_translate(Q, n),
                         lambda: pair_with_twisted_cycle(cycle, n)):
                with pytest.raises(ValueError, match="n must be positive"):
                    call()

    def test_negated_translate_is_caught(self, monkeypatch):
        # a translate whose form comes out negated runs from the image of
        # the minus root to the image of the plus root
        make = rqgeo.hecke.ClosedGeodesic
        monkeypatch.setattr(rqgeo.hecke, "ClosedGeodesic",
                            lambda f, p: make(QuadForm(-f.a, -f.b, -f.c), p))
        Q = _base_geodesic(6, 5)
        with pytest.raises(AssertionError, match="roots"):
            hecke_translate(Q, 2)

    def test_transposed_coset_is_caught(self, monkeypatch):
        # the form pulled back through delta^T while the check pushes it
        # back through adj(delta).  The check is an identity in the one
        # matrix it is given, so the transpose is paired with the adjugate
        # of the untransposed rep
        class Transposed(Mat2):
            def adjugate(self):
                return Mat2(self.d, -self.c, -self.b, self.a)
        cosets = rqgeo.hecke.double_cosets
        monkeypatch.setattr(
            rqgeo.hecke, "double_cosets",
            lambda Q, n: tuple(Transposed(m.a, m.c, m.b, m.d)
                               for m in cosets(Q, n)))
        Q = _base_geodesic(6, 5)
        with pytest.raises(AssertionError, match="roots"):
            for n in range(2, 7):
                hecke_translate(Q, n)

    def test_dual_stabilizer_asserted(self):
        # the stabilizer of each translate, from the automorph of its
        # form, equals Q's stabilizer conjugated through the coset rep
        for D, p in ((6, 5), (3, 11)):
            Q = _base_geodesic(D, p)
            for n in (2, 3, 6):
                deltas = double_cosets(Q, n)
                translates = hecke_translate(Q, n)
                assert len(deltas) == len(translates)
                for delta, t in zip(deltas, translates):
                    assert _dual_stabilizer(Q, delta, n) == t.gamma


class TestPairing:
    def test_dual_algorithm_agreement(self):
        for D, p in ((6, 5), (7, 3), (3, 13)):
            F = build_field(D)
            G = narrow_class_group(F)
            psi = odd_characters(G)[0]
            r = choose_r(F, p)
            T = twisted_cycle(F, G, psi, p, r)
            for n in range(1, 11):
                a, _ = pair_with_twisted_cycle(T, n)
                assert a == _translate_sum(T, n, intersect_winding_enum)
                assert a == _translate_sum(T, n, intersect_winding_cycle)
                assert isinstance(a, int)

    @pytest.mark.parametrize("name", ["intersect_winding_cycle",
                                      "intersect_winding_enum"])
    def test_mismatch_is_raised(self, monkeypatch, name):
        # each algorithm is looked up at call time: one of them off by
        # one on every translate is caught at the first translate, as the
        # one AlgorithmMismatch that the package and the series export
        assert rqgeo.AlgorithmMismatch is rqgeo.series.AlgorithmMismatch \
            is AlgorithmMismatch
        count = getattr(rqgeo.hecke, name)
        monkeypatch.setattr(rqgeo.hecke, name, lambda t: count(t) + 1)
        Q = _base_geodesic(6, 5)
        with pytest.raises(AlgorithmMismatch, match=r"^translate .*: cycle="):
            pair_with_twisted_cycle(((1, Q),), 2)

    def test_known_proportionality(self):
        F = build_field(6)
        G = narrow_class_group(F)
        psi = odd_characters(G)[0]
        r = choose_r(F, 5)
        T = twisted_cycle(F, G, psi, 5, r)
        for n in range(1, 9):
            assert pair_with_twisted_cycle(T, n)[0] == -4 * sigma1(n, 5)

    def test_coset_reshuffle_invariance(self):
        # pairing must not depend on which representative of each coset
        # is used: re-multiply the double coset reps by random Gamma0(p)
        # elements and recompute through the low-level pieces
        rng = random.Random(17)
        F = build_field(7)
        G = narrow_class_group(F)
        psi = odd_characters(G)[0]
        r = choose_r(F, 3)
        T = twisted_cycle(F, G, psi, 3, r)
        from rqgeo.geodesic import ClosedGeodesic
        for n in (2, 4, 5):
            ref, _ = pair_with_twisted_cycle(T, n)
            total = 0
            for coeff, Q in T:
                s = 0
                for delta in double_cosets(Q, n):
                    g = Mat2(1, rng.randrange(-2, 3), 0, 1) * Mat2(1, 0, 3 * rng.randrange(-2, 3), 1)
                    delta2 = delta * g
                    t = ClosedGeodesic(Q.form.apply(delta2), 3)
                    # adj(delta2) maps Q's plus and minus roots onto t's
                    adj = delta2.adjugate()
                    assert plus_root(t.form) == mobius(adj, plus_root(Q.form))
                    assert minus_root(t.form) == mobius(adj, minus_root(Q.form))
                    s += intersect_winding_cycle(t)
                total += coeff * s
            assert total == ref


def _left_coset_paths(n, p):
    """The edge counts of T_n W, one n at a time: minus one at the p1_key
    of the bottom row of each edge on the continued-fraction path
    (infinity -> b/d), over the left cosets (a, b; 0, d) with ad = n,
    p not dividing a and 0 <= b < d, the convergents kept whole."""
    counts = {}
    for a in range(1, n + 1):
        if n % a or a % p == 0:
            continue
        d = n // a
        for b in range(d):
            x, y, k0, k1, e = b, d, 1, 0, -1
            while y:
                q, x, y = x // y, y, x % y
                k0, k1 = k1, q * k1 + k0
                k = p1_key(e * k0, k1, p)
                counts[k] = counts.get(k, 0) - 1
                e = -e
    return tuple(sorted((k, c) for k, c in counts.items() if c))


class TestManinCounts:
    def test_equals_the_left_cosets_for_each_n(self):
        # p | n and p^2 | n included, so a coset with p | a counted in
        # R_n shows; p = 9,999,991, next to cli.MAX_LEVEL, divides no
        # denominator, and every key is an inverse mod p
        for p in (2, 3, 5, 11, 13, 97, 9999991):
            rows = manin_counts(60, p)
            assert len(rows) == 60
            for n in range(1, 61):
                assert rows[n - 1] == _left_coset_paths(n, p), (n, p)

    def test_rows_do_not_depend_on_N(self):
        # the rows of n <= M are the same in every table with N >= M: a
        # stride over n = a d that stops short of N loses row N
        for counts in (manin_counts, merel_counts):
            for p in (3, 5, 13):
                for M in (1, 2, 7, 12, 29):
                    assert counts(30, p)[:M] == counts(M, p), (counts, p, M)

    def test_n1_is_the_reversed_axis(self):
        # (0 -> infinity) is minus the edge 1/0 -> 0/1 of bottom row (1 : 0)
        for p in (3, 5, 13):
            assert manin_counts(1, p) == (((0, -1),),)

    def test_path_lengths(self):
        # the path to b/d has one edge per partial quotient of b/d; R_n
        # sums them over the left cosets, a | n prime to p, b mod n/a
        def length(b, d):
            k = 0
            while d:
                b, d, k = d, b % d, k + 1
            return k
        for p in (3, 7):
            rows = manin_counts(29, p)
            for n in range(1, 30):
                want = sum(length(b, n // a) for a in range(1, n + 1)
                           if n % a == 0 and a % p for b in range(n // a))
                assert -sum(c for _, c in rows[n - 1]) == want, (n, p)

    def test_left_cosets_equal_double_cosets(self):
        # sum of R_n against the Manin table of Q is the sum over the
        # double-coset translates of Q, for RM points and random forms,
        # at n with and without p.  The forms have fundamental
        # discriminants, as RM points do: then each translate's
        # stabilizer is the conjugate of Q's (its order has conductor
        # dividing n, so no more units), and one period of each translate
        # is its share of T_n Q
        rng = random.Random(23)
        points = []
        for D, p in ((6, 5), (7, 3), (3, 11), (15, 7), (21, 5), (33, 17)):
            F = build_field(D)
            G = narrow_class_group(F)
            r = choose_r(F, p)
            points += [Q for s in (r, -r) for Q in rm_points(F, G, p, s)]
        while len(points) < 40:
            f = QuadForm(*(rng.randrange(-9, 10) for _ in range(3)))
            disc = f.disc()
            core, square = squarefree_part(disc) if disc > 0 else (1, 0)
            if core != 1 and f.content() == 1 and (
                    square == 1 or square == 2 and core % 4 in (2, 3)):
                points.append(ClosedGeodesic(f, rng.choice((3, 5, 7, 11))))
        for Q in points:
            (row,) = manin_pairings([manin_table(Q)], 12, Q.p)
            for n in range(1, 13):
                pairing, _ = pair_with_twisted_cycle(((1, Q),), n)
                assert row[n - 1] == pairing, (Q, n)

    def test_translates_need_a_fundamental_discriminant(self):
        # Q = [-4, 6, 9], disc 180 = 6^2 * 5, is no RM point: a translate
        # whose order has a smaller conductor has more units, so one
        # period of it is only part of its share of T_n Q, and the
        # translate sums fall short of the Manin row at n = 2 and 3
        Q = ClosedGeodesic(QuadForm(-4, 6, 9), 11)
        (manin,) = manin_pairings([manin_table(Q)], 5, 11)
        both = [pair_with_twisted_cycle(((1, Q),), n)[0] for n in range(1, 6)]
        assert manin == (-16, -52, -68, -116, -100)
        assert both == [-16, -40, -60, -116, -100]

    def test_rejects_nonpositive_n(self):
        for N in (0, -1):
            with pytest.raises(ValueError, match="N must be at least 1"):
                manin_counts(N, 5)


@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 80), p=st.sampled_from((2, 3, 5, 7, 13, 97, 9999991)))
def test_manin_counts_equal_the_left_cosets(N, p):
    # the tree walk over reduced fractions and the divisor fold against
    # the cosets of each n walked whole
    rows = manin_counts(N, p)
    assert rows == tuple(_left_coset_paths(n, p) for n in range(1, N + 1))


def _merel_set(n, p):
    """The bottom-row counts of Merel's X_n, one n at a time: every
    (a, b; c, d) with a > b >= 0, d > c >= 0 and ad - bc = n, d found by
    division; rows (0, 0) mod p are left out."""
    counts = {}
    for a in range(1, n + 1):
        for b in range(a):
            for c in range(n):
                if n + b * c < a * (c + 1):
                    break
                d, rem = divmod(n + b * c, a)
                if rem == 0 and not (c % p == 0 and d % p == 0):
                    k = p1_key(d, c, p)
                    counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


# RM points of every split (D, p), D squarefree below 200 and p <= 23:
# levels with and without a modularity model
RM_CASES = tuple((D, p) for D in range(2, 200) if squarefree_part(D)[1] == 1
                 for p in (3, 5, 7, 11, 13, 17, 19, 23)
                 if pow(D if D % 4 == 1 else 4 * D, (p - 1) // 2, p) == 1)


class TestMerelCounts:
    def test_equals_the_set_for_each_n(self):
        for p in (3, 5, 11, 13):
            rows = merel_counts(60, p)
            assert len(rows) == 60
            for n in range(1, 61):
                assert rows[n - 1] == _merel_set(n, p), (n, p)

    def test_n1_is_the_axis(self):
        # X_1 = {identity}, the edge of bottom row (0 : 1)
        for p in (3, 5, 13):
            assert merel_counts(1, p) == (((p, 1),),)

    def test_rejects_nonpositive_N(self):
        # as manin_counts does, instead of returning no rows
        for N in (0, -1):
            with pytest.raises(ValueError, match="N must be at least 1"):
                merel_counts(N, 5)

    def test_pairing_beyond_fundamental_discriminants(self):
        # Merel's set and the left cosets are two decompositions of T_n W,
        # so they pair alike with every Manin table, also where the
        # translate sums fall short (test_translates_need_a_fundamental_
        # discriminant)
        Q = ClosedGeodesic(QuadForm(-4, 6, 9), 11)
        assert pairing_row(manin_table(Q), merel_counts(5, 11)) == \
            (-16, -52, -68, -116, -100)

    def test_rows_differ_by_manin_relations(self):
        # the two edge counts of T_n W are not equal as vectors; only
        # their pairings with Manin tables agree
        assert merel_counts(2, 5)[1] != manin_counts(2, 5)[1]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(RM_CASES), pick=st.integers(0, 10 ** 6))
def test_merel_pairing_equals_manin_row(case, pick):
    # a random RM point, of either sign of r, paired with Merel's set and
    # with the left cosets for every n <= 30, p | n included
    D, p = case
    F = build_field(D)
    G = narrow_class_group(F)
    r = choose_r(F, p)
    points = [Q for s in (r, -r) for Q in rm_points(F, G, p, s)]
    Q = points[pick % len(points)]
    table = manin_table(Q)
    assert pairing_row(table, merel_counts(30, p)) == \
        pairing_row(table, manin_counts(30, p)), (D, p, Q)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 40),
       p=st.sampled_from((2, 3, 5, 7, 13, 37, 97, 9999991)), data=st.data())
def test_merel_pairings_equal_the_count_rows(N, p, data):
    # one pass over Merel's set pairs up to 24 tables, empty ones and
    # entries of either sign up to 10^9 among them, at p <= N and p > N:
    # every lane of every row is the table paired alone with the count
    # rows of X_n
    keys = st.sampled_from(tuple(range(min(p, 40) + 1)) + (p,))
    table = st.dictionaries(keys, st.integers(-10 ** 9, 10 ** 9),
                            max_size=12)
    tables = data.draw(st.lists(table, max_size=24))
    counts = merel_counts(N, p)
    assert merel_pairings(tables, N, p) == tuple(pairing_row(t, counts)
                                                  for t in tables)


class TestMerelPairings:
    def test_at_a_large_level(self):
        # next to cli.MAX_LEVEL every key but p is an inverse mod p and
        # the tables are sparse
        F = build_field(91)
        G = narrow_class_group(F)
        p = 9999973
        r = choose_r(F, p)
        tables = [manin_table(Q)
                  for s in (r, -r) for Q in rm_points(F, G, p, s)]
        counts = merel_counts(60, p)
        assert merel_pairings(tables, 60, p) == tuple(
            pairing_row(t, counts) for t in tables)

    def test_edge_cases(self):
        assert merel_pairings([], 5, 7) == ()
        assert merel_pairings([{}], 3, 7) == ((0, 0, 0),)
        # X_1 is the identity, bottom row (0 : 1) of key p
        assert merel_pairings([{0: 5, 7: 1}], 1, 7) == ((1,),)
        # at n < p key p is the rows (0 : d) alone, sigma1(n) matrices:
        # lanes at the largest entry of either sign beside a zero lane
        top = 10 ** 12
        assert merel_pairings([{7: top}, {}, {7: -top}], 4, 7) == (
            (top, 3 * top, 4 * top, 7 * top), (0,) * 4,
            (-top, -3 * top, -4 * top, -7 * top))
        for N in (0, -1):
            with pytest.raises(ValueError, match="N must be at least 1"):
                merel_pairings([{0: 1}], N, 5)


# RM points of every split (D, p), D squarefree below 100 and p <= 50
WALK_CASES = tuple(
    (D, p) for D in range(2, 100) if squarefree_part(D)[1] == 1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    if pow(D if D % 4 == 1 else 4 * D, (p - 1) // 2, p) == 1)


def _oracle_pairings(tables, N, p):
    counts = manin_counts(N, p)
    return tuple(pairing_row(t, counts) for t in tables)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(WALK_CASES), N=st.integers(1, 60),
       sign=st.sampled_from((1, -1)))
def test_walk_equals_the_count_rows(case, N, sign):
    # one walk pairs every table of a root at once, as the count rows of
    # the left cosets pair each table alone
    D, p = case
    F = build_field(D)
    G = narrow_class_group(F)
    tables = [manin_table(Q)
              for Q in rm_points(F, G, p, sign * choose_r(F, p))]
    assert manin_pairings(tables, N, p) == _oracle_pairings(tables, N, p)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 13, 9999991)), N=st.integers(1, 40),
       data=st.data())
def test_walk_packs_large_entries_exactly(p, N, data):
    # any tables, entries of either sign up to 10^9 and up to eight of
    # them: every lane of every row comes out exact
    keys = st.sampled_from(tuple(range(min(p, 40) + 1)) + (p,))
    table = st.dictionaries(keys, st.integers(-10 ** 9, 10 ** 9),
                            max_size=12)
    tables = data.draw(st.lists(table, max_size=8))
    assert manin_pairings(tables, N, p) == _oracle_pairings(tables, N, p)


class TestManinPairings:
    def test_at_a_large_level(self):
        # next to cli.MAX_LEVEL every key is an inverse mod p and the
        # tables are sparse
        F = build_field(91)
        G = narrow_class_group(F)
        p = 9999973
        tables = [manin_table(Q) for Q in rm_points(F, G, p, choose_r(F, p))]
        assert manin_pairings(tables, 60, p) == _oracle_pairings(tables, 60, p)

    def test_edge_cases(self):
        assert manin_pairings([], 5, 7) == ()
        assert manin_pairings([{}], 3, 7) == ((0, 0, 0),)
        # n = 1 is minus the edge 1/0 -> 0/1, key 0
        assert manin_pairings([{0: 5, 7: 1}], 1, 7) == ((-5,),)
        for N in (0, -1):
            with pytest.raises(ValueError, match="N must be at least 1"):
                manin_pairings([{0: 1}], N, 5)
