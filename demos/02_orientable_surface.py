"""Orientable surface groups: the answer is 4, exactly.

The genus-g surface group (g >= 2) has abelianization Z^2g carrying the
alternating intersection form Omega.  Automorphisms act through integer
matrices S with S Omega S^T = +-Omega, and every such matrix occurs.
This script re-runs the two halves of the degree-4 verdict for genus 2:

  * a witness whose tower avoids eigenvalue 1 through degree 3 on the
    relator quotient (so classes 1..3 do not force infinitude), and
  * eigenvalue 1 at degree <= 4 for the witness and for sampled
    admissible matrices (so class 4 always does).
"""

from rinfty import (IntMatrix, SurfaceSpec, admissibility, build_hall_basis,
                    charpoly, ideal_quotient, induced_tower,
                    metabelian_truncation, orientable_relator,
                    orientable_witness, rinf_degree, sample_admissible)

print(__doc__)

g = 2
witness = orientable_witness(g)
print(f"witness matrix (admissibility: {admissibility(witness, g)}):")
for row in witness.entries:
    print("   ", row)
print(f"charpoly = {charpoly(witness)}  (roots 1 +- sqrt 2, none on the unit circle)")

table = build_hall_basis(2 * g, 4)
relator = orientable_relator(g, table)
quotient = ideal_quotient(table, relator, 4)
print(f"relator quotient ranks by degree: "
      f"{[quotient.rank(d) for d in range(1, 5)]}")

tower = induced_tower(table, witness)
for d in (1, 2, 3):
    mat = quotient.project(tower.matrix(d), d)
    det = (IntMatrix.identity(mat.rows) - mat).det()
    print(f"  degree {d}: det(I - M_{d}) on the quotient = {det}")

# the truncation is a quotient of the same free ring, so the same tower acts
met = metabelian_truncation(quotient)
proj = met.project(tower.matrix(4), 4)
det4 = (IntMatrix.identity(proj.rows) - proj).det()
print(f"  degree 4 on the metabelian truncation: det(I - M_4) = {det4}")

print()
print("sampled admissible matrices (both signs) all hit eigenvalue 1 by degree 4:")
from rinfty.analysis import structural_sample_report
for i in range(4):
    sign = "plus" if i % 2 == 0 else "minus"
    s = sample_admissible(g, sign, seed=("demo", i), length=8)
    rep = structural_sample_report(s, g)
    print(f"  sample {i} ({sign}): first eigenvalue-1 degree = "
          f"{rep['first_eigenvalue_one_degree']}")

verdict = rinf_degree(SurfaceSpec(True, g), samples=4, seed=0)
print()
print(f"assembled verdict: R-infinity nilpotency degree = {verdict.degree}")
