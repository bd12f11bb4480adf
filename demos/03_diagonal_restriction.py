"""The full diagonal-restriction q-expansion for four field/prime pairs.

Everything here is exact rational arithmetic. The constant term comes
from partial zeta values (sums of reduction steps over the reduced
cycle of each class, double checked by a genus-theory oracle); the
higher coefficients come from
geodesic intersection numbers. Modularity then pins the whole series:
for genus-zero p a single proportionality, for p = 11 a two-dimensional
space containing the eta product.
"""

from rqgeo import (
    L_value_zagier,
    build_field,
    diagonal_restriction,
    euler_factor,
    modularity_check,
    narrow_class_group,
    odd_characters,
    sigma1,
)

for D, p in ((3, 11), (3, 13), (6, 5), (7, 3)):
    F = build_field(D)
    G = narrow_class_group(F)
    psi = odd_characters(G)[0]
    S = diagonal_restriction(F, G, psi, p, N=12)
    print("D = %d, p = %d  (d_F = %d, r = %s)" % (D, p, F.d_F,
                                                  S.metadata["r"]))
    print("  constant term %s" % (S.constant,))
    print("  a_1..a_12     %s" % [S.coeffs[n] for n in range(1, 13)])
    rep = modularity_check(S)
    print("  modularity    %s (mode %s)" % ("ok" if rep.passed else "FAIL",
                                            rep.mode))
    if not S.is_zero() and p != 11:
        ratio = S.coeffs[1]
        assert all(S.coeffs[n] == ratio * sigma1(n, p) for n in S.coeffs)
        print("  a_n = %d * sigma1^(%d)(n) for all n" % (ratio, p))
    if S.metadata["r"]:
        print("  L-value split: euler factor %s x raw L %s" % (
            euler_factor(F, G, psi, p, S.metadata["r"]), L_value_zagier(G, psi)))
    print()

# the inert case: 12 is not a square mod 5, the series collapses
F = build_field(3)
G = narrow_class_group(F)
S = diagonal_restriction(F, G, odd_characters(G)[0], 5, N=6)
print("D = 3, p = 5: inert=%s, series identically zero" % S.inert)
