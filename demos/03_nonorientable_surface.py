"""Non-orientable surface groups: the degree grows with the genus.

For the non-orientable surface of genus g+1 (g >= 2) the torsion-free
abelianization has rank g, and the verdict is 2g.  The script builds the
witness for the hardest class below the threshold: a rotation L composed
with g-1 twisted shifts A, whose characteristic polynomial has one
dominant real root and determinant -1, so no product of fewer than 2g of
its eigenvalues can reach 1; at 2g the squared full product is exactly
(det)^2 = 1 and the criterion trips for every automorphism.  The products
of i eigenvalues are the eigenvalues of the symmetric power Sym^i W, so
the test is charpoly(Sym^i W)(1), built from the power sums of charpoly(W).
"""

from rinfty import (IntMatrix, SurfaceSpec, charpoly, dominance_root_test,
                    nonorientable_witness, rinf_degree)
from rinfty.analysis import (nonorientable_base_matrices,
                             nonorientable_charpoly_formula)
from rinfty.freelie import ShapeCharacter, build_hall_basis, induced_tower

print(__doc__)

for genus in (3, 4):
    g = genus - 1
    c = 2 * g - 1
    w, m, sym = nonorientable_witness(g, c)
    p = charpoly(w)
    print(f"genus {genus} (rank {g}, witness class {c}): twist exponent m = {m}")
    print(f"  charpoly = {p}")
    assert p == nonorientable_charpoly_formula(g, m)
    print(f"  closed formula check: (1+x)(x-1)^{g-1} + sum (mx)^k (x-1)^...: ok")
    print(f"  det = {w.det()}, dominance test: {dominance_root_test(p)}")
    sym[2 * g] = ShapeCharacter(p, "sym", 2 * g).det(2 * g)
    assert sym[2 * g] == 0 and 0 not in list(sym.values())[:-1]
    for i, val in sym.items():
        tag = ("ZERO (eigenvalue 1 appears)" if val == 0
               else f"nonzero ({val.bit_length()} bits)")
        print(f"  i = {i}: charpoly(Sym^{i} W)(1) is {tag}")
    table = build_hall_basis(g, 2 * g)
    tower = induced_tower(table, w)
    final = tower.matrix(2 * g)
    det = (IntMatrix.identity(final.rows) - final).det()
    print(f"  degree-{2 * g} lattice (dim {final.rows}): det(I - M) = {det}")
    verdict = rinf_degree(SurfaceSpec(False, genus))
    print(f"  assembled verdict: degree = {verdict.degree}")
    print()

print("L and A for genus 4 at a small twist, for inspection:")
el, a = nonorientable_base_matrices(3, 5)
print("A =", [list(r) for r in a.entries])
print("L =", [list(r) for r in el.entries])
print("W = L A^2 =", [list(r) for r in (el @ a ** 2).entries])
