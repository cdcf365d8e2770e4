"""The eigenvalue-1 criterion for twisted conjugacy, from scratch.

An endomorphism phi of a group G identifies x ~ z * x * phi(z)^-1; the
classes are the twisted conjugacy (Reidemeister) classes.  On Z^n with
phi given by an integer matrix M the class count is the cokernel order
of I - M: finite exactly when 1 is not an eigenvalue of M.

For a finitely generated nilpotent group the same criterion runs over
every layer of the lower central series: the count is infinite exactly
when some induced layer map has eigenvalue 1.  The demo takes each
layer's det(I - M_d) from the induced tower and checks it against the
partition-shape character of charpoly(M), the route the package uses.
"""

from rinfty import (IntMatrix, ShapeCharacter, abelian_reidemeister_count,
                    build_hall_basis, charpoly, induced_tower)

print(__doc__)

print("--- abelian layer ---")
for rows in ([[0, 1], [1, 1]], [[1, 0], [0, 1]], [[2, 1], [1, 1]]):
    m = IntMatrix(rows)
    count = abelian_reidemeister_count(m)
    shown = "infinite" if count is None else count
    print(f"M = {rows}: twisted classes on Z^2 = {shown} "
          f"(charpoly {charpoly(m)}, value at 1 = {charpoly(m)(1)})")

print()
print("--- free nilpotent towers ---")
print("Take M = [[0,1],[1,1]] acting on the free nilpotent group on two")
print("generators.  Degree d of its graded Lie ring carries an induced")
print("matrix M_d; the twisted count for the class-c quotient is finite")
print("exactly when no det(I - M_d) vanishes for d <= c.")
m = IntMatrix([[0, 1], [1, 1]])
table = build_hall_basis(2, 4)
tower = induced_tower(table, m)
dets = {}
for d in range(1, 5):
    md = tower.matrix(d)
    dets[d] = (IntMatrix.identity(md.rows) - md).det()
    print(f"  degree {d}: dim {md.rows}, det(I - M_{d}) = {dets[d]}")
first = next((d for d, det in dets.items() if det == 0), None)
print(f"first eigenvalue-1 degree: {first}")

# The same dets come from charpoly(M) alone: charpoly(M_d) on the free Lie
# ring is a product of partition-shape factors, which is how the package
# reads them without building a tower.
char = ShapeCharacter(charpoly(m), "free", 4)
assert dets == {d: char.det(d) for d in dets}
assert first == 4
print("the free shape character of charpoly(M) gives the same dets")
print("So the class-3 quotient admits an automorphism with finitely many")
print("twisted classes, while every class >= 4 quotient does not (for this")
print("matrix): the rank-2 calibration value 2r = 4.")
