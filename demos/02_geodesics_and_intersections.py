"""RM points, twisted cycles, and the two intersection algorithms.

For F = Q(sqrt(6)) and p = 5 we build the psi-twisted cycle of closed
geodesics and intersect each Hecke translate with the winding geodesic
(the image of the imaginary axis in Y0(p)), using two algorithms that
share nothing but the exact arithmetic layer:

  cycle  - entry p of the form's Manin table: walk its reduction
           cycle, each step a run of |delta| edges of the river of its
           Conway topograph, and count the straddling forms (a*c < 0)
           of one automorph period that lie in the Gamma0(p)-class;
  enum   - follow the Farey cutting sequence of the geodesic from one
           crossed edge to its image under the Gamma0(p) stabilizer,
           telling the sides of each vertex by the sign of the form.

The series itself builds no translate: T_n moves onto the winding
geodesic, whose Hecke images are fixed sums of unimodular edges
(manin_counts counts them for every n <= N in one pass), so one Manin
table of p + 1 crossing numbers per point gives every pairing
(pairing_row).
"""

from rqgeo import (
    build_field,
    choose_r,
    hecke_translate,
    intersect_winding_cycle,
    intersect_winding_enum,
    manin_counts,
    manin_table,
    narrow_class_group,
    odd_characters,
    pairing_row,
    twisted_cycle,
)

D, p = 6, 5
F = build_field(D)
G = narrow_class_group(F)
psi = odd_characters(G)[0]
r = choose_r(F, p)
print("d_F = %d, p = %d, chosen square root r = %d (r^2 = d_F mod 4p)"
      % (F.d_F, p, r))

cyc = twisted_cycle(F, G, psi, p, r)
print("\ntwisted cycle: %d closed geodesics (one +r and one -r per class);"
      % len(cyc))
print("each is a signed primitive form, oriented from its plus root to its"
      " minus root")
for coeff, Q in cyc:
    print("  coeff %+d   form %s" % (coeff, tuple(Q.form)))

print("\nper-translate intersection numbers, both algorithms:")
for n in (1, 2, 3, 4):
    total = 0
    rows = []
    for coeff, Q in cyc:
        for t in hecke_translate(Q, n):
            a = intersect_winding_cycle(t)
            b = intersect_winding_enum(t)
            assert a == b
            rows.append((tuple(t.form), a))
            total += coeff * a
    print("  n = %d: pairing %d from %d translates %s"
          % (n, total, len(rows), rows if n == 1 else "..."))
tables = [(coeff, manin_table(Q)) for coeff, Q in cyc]
print("\nManin tables, the nonzero entries: key k for the bottom row (1 : k),"
      " p for (0 : 1):")
for coeff, table in tables:
    print("  coeff %+d   %s" % (coeff, dict(sorted(table.items()))))
print("the same pairings as sums of R_n[k] * table[k]:")
counts = manin_counts(4, p)
rows = [(coeff, pairing_row(table, counts)) for coeff, table in tables]
for n in (1, 2, 3, 4):
    pairing = sum(coeff * row[n - 1] for coeff, row in rows)
    print("  n = %d: R_n = %s, pairing %d" % (n, dict(counts[n - 1]), pairing))
print("\nevery pairing is even (both square roots trace the same locus)")
print("and the series coefficient is a_n = -2 * pairing.")
