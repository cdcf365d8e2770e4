"""Malcev coordinates: exact arithmetic in free nilpotent groups.

Elements are integer exponent vectors over the iterated-commutator
basis; multiplication collects words back into normal form, powers are
polynomial in the exponent, roots are solved in the rational completion
and accepted only when integral.
"""

from rinfty import (build_power_table, free_nilpotent_group,
                    free_rank_certificate, nth_root, padding_exponent,
                    power_padding)

print(__doc__)

G = free_nilpotent_group(2, 2)
a, b = G.generators()
print("N_{2,2} with basis a, b, [b,a]:")
print("  b*a collects to", (b * a).coords, " (= a b [b,a])")
print("  (ab)^2 =", ((a * b) ** 2).coords, " (= a^2 b^2 [b,a])")
print()

table = build_power_table(2, 2)
print("power polynomials: u^m has coordinates m*x_i + q_i(x_1..x_{i-1}, m)")
print("  q_2 =", table.q(2), " (always zero)")
print("  q_3 =", table.q(3))
print()

u = a ** 4 * b ** 4
root = nth_root(u, 2)
print(f"square root of a^4 b^4: coordinates {root.coords}")
print(f"  check: root^2 == a^4 b^4 -> {root ** 2 == u}")
print(f"no square root of a alone: {nth_root(a, 2)}")
print()

print("padding: absorbing a power of y into an n-th power of x")
f, z = power_padding(2, a, b)
print(f"  f(2, 2) = {f}; a^2 b^{f} = (a z)^2 with z = {z.coords}")
for c in (2, 3, 4, 5):
    print(f"  f(2, {c}) = {padding_exponent(2, c)}")
print()

G33 = free_nilpotent_group(3, 3)
gens = [G33.generator(i) ** 4 for i in range(3)]
print("free-rank certificate for {b_1^4, b_2^4, b_3^4} in N_{3,3}:",
      free_rank_certificate(gens))
print("  (their span is a finite-index free 3-step nilpotent subgroup)")
u = G33.identity
for i in range(3):
    u = u * G33.generator(i) ** 8
d = nth_root(u, 2)
print(f"the product of all 8th powers is a square: d = {d.coords}")
