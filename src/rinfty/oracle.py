"""Independent brute-force checks for the twisted-conjugacy machinery.

Twisted conjugacy for x, y under an endomorphism phi identifies
x ~ z * x * phi(z)^-1.  On a finitely generated abelian group the class
count is the cokernel order of I - M, which is |det(I - M)| when that
is nonzero.  For nilpotent desk-scale checks we reduce the Malcev
coordinates of a free nilpotent group modulo a prime power p^e with
p exceeding the class: every denominator in the collection polynomials
is then invertible, the reduced coordinate maps define an honest finite
group of order m^k, and twisted classes can be counted as orbits and
compared against the exact linear-algebra predictions.

The count works with the multiplication map over Z/m.  Each
generator move x -> z x phi(z)^-1 is composed over Q, as ``MPoly``
substitutions into the multiplication polynomials, into k polynomials
in the k coordinates of x, and reduced mod m once (each coefficient a/b
becomes a * b^-1 mod m).  The r inverses phi(z)^-1 are the group's
exact inverses reduced mod m.  Every coefficient of the multiplication
and inversion maps lies in Z_(p), reduction Z_(p) -> Z/p^e is a ring
map, and substitution commutes with ring maps, so both equal computing
step by step in Z/m.  Top-degree coordinates are central: a move maps
the low coordinates (degrees below c) by polynomials in the low ones and
each top x_j to x_j plus a low shift.  That shape is checked on every
move, and the count never visits the m^k elements.  It evaluates each
move once per low point, in a union-find over the m^kl low points whose
potentials, in the top group T, record how fibers are translated onto
their root's; every cycle of the low graph adds its total shift to the
stabiliser subgroup H of its component, and the component holds |T| / |H|
classes.  |H| comes from an echelon pass over Z/p^e, so time and memory
grow with m^kl, not m^k.

The spectrum check holds each induced tower on the free Lie ring to the
"free" ``freelie.ShapeCharacter``, the kernel of ``check --nonorientable``:
charpoly(M_i) must equal its shape-factor product, multiplicities included.
"""

from functools import cache
from itertools import product
from math import gcd, lcm

from .errors import ResourceLimitError
from .intlinalg import IntMatrix, charpoly
from .freelie import (ShapeCharacter, check_hall_table, induced_tower,
                      witt_dimension)
from .mvpoly import MPoly
from .nilpotent import free_nilpotent_group, ser_mul

# the largest group order m^k admitted; one crosscheck process, 2-core x86,
# medians of 5 in two rounds: 15,625 elements 0.13-0.18 s 18 MB, 390,625
# (rank 2 class 4) 0.20-0.31 s 19 MB, 912,673 (``--matrix`` 3x3 mod 97)
# 0.12-0.20 s 18 MB.  The count walks the m^kl low points, not the m^k
# elements, so m^k overprices it
MAX_ORDER = 10 ** 6


def abelian_reidemeister_count(m):
    """Twisted class count |coker(I - M)| = |det(I - M)| on Z^n.

    None when the determinant is 0: the cokernel, and the count, are then
    infinite.
    """
    if not m.is_square:
        raise ValueError("endomorphism matrix must be square")
    return abs((IntMatrix.identity(m.rows) - m).det()) or None


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2017); the bound is itself a strong pseudoprime
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _iroot(m, e):
    """floor(m^(1/e)) for m >= 1, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // e)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _is_prime(q):
    """Miller-Rabin to ``_PRIME_BASES``; exact for q < ``_PRIME_TEST_BOUND``.

    A probable prime past the bound is refused with ``ResourceLimitError``.
    """
    if q in _PRIME_BASES:
        return True
    if q < 2 or any(q % b == 0 for b in _PRIME_BASES):
        return False
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    if q >= _PRIME_TEST_BOUND:
        raise ResourceLimitError(
            f"modulus base {q} is at least {_PRIME_TEST_BOUND}, past which "
            f"the prime test is not exact")
    return True


def _prime_power_base(m):
    """The prime p with m = p^e, or None.

    Integer roots, largest exponent first, give the least q with m = q^e;
    m is a prime power exactly when q is prime.  No trial division.
    """
    for e in range(m.bit_length(), 0, -1):
        q = _iroot(m, e)
        if q ** e == m:
            return q if _is_prime(q) else None


class _CoordinateMaps:
    """Multiplication of N_{r,c} as a polynomial map.

    Each output coordinate of u v is an ``MPoly`` in the 2k inputs u, v
    with rational coefficients whose denominators only involve primes
    <= c; ``denominator`` is the lcm of them all.
    """

    def __init__(self, r, c):
        amb = free_nilpotent_group(r, c)
        k = amb.k
        names = tuple(f"u{j}" for j in range(k)) + tuple(f"v{j}" for j in range(k))
        one = MPoly.constant(names, 1)
        us = [MPoly.variable(names, f"u{j}") for j in range(k)]
        vs = [MPoly.variable(names, f"v{j}") for j in range(k)]
        series_u = amb.series_from_coords(us, one)
        series_v = amb.series_from_coords(vs, one)
        self.ambient = amb
        self.names = names
        self.mult = amb.peel(ser_mul(series_u, series_v), one)
        self.denominator = lcm(*(poly.denominator_lcm() for poly in self.mult))


@cache
def _coordinate_maps(r, c):
    return _CoordinateMaps(r, c)


def _reduce(poly, m):
    """An ``MPoly`` mod m, sparse as (coeff, ((variable, exponent), ...)).

    Each coefficient a/b, an integer term over the common denominator b,
    becomes a * b^-1 mod m.
    """
    inv = pow(poly.denominator, -1, m)
    out = []
    for exps, coeff in poly.terms.items():
        val = coeff * inv % m
        if val:
            out.append((val, tuple((v, e) for v, e in enumerate(exps) if e)))
    return tuple(out)


def _eval_reduced(poly, values, m):
    """Evaluate one reduced coordinate polynomial modulo m."""
    acc = 0
    for coeff, factors in poly:
        for v, e in factors:
            coeff *= values[v] ** e
        acc += coeff
    return acc % m


class FiniteTwistedSetup:
    """Twisted-conjugacy instance on N_{r,c} reduced modulo a prime power.

    The modulus must be p^e with p > c so the reduced coordinate maps are
    well defined; the endomorphism is given by the images of the r
    generators as coordinate tuples.  The checks run cheapest first: the
    modulus (exact prime-power test, no trial division), the Hall-table
    cap, then the group order against ``MAX_ORDER``, all before the
    collection maps are built.
    """

    def __init__(self, r, c, modulus, images=None):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if r < 0 or c < 1:
            raise ValueError("need r >= 0 and c >= 1")
        p = _prime_power_base(modulus)
        if p is None:
            raise ValueError(f"modulus {modulus} is not a prime power")
        if p <= c:
            raise ValueError(
                f"modulus base {p} must exceed the class {c} for the "
                f"reduction to close")
        self.r = r
        self.c = c
        self.modulus = modulus
        if r == 0:
            self.k = 0
            self.images = ()
            return
        check_hall_table(r, c)
        self.k = sum(witt_dimension(r, d) for d in range(1, c + 1))
        self._check_order()
        self._maps = _coordinate_maps(r, c)
        if gcd(self._maps.denominator, modulus) != 1:
            raise ValueError("collection denominators are not invertible")
        self._mult = [_reduce(poly, modulus) for poly in self._maps.mult]
        if images is None:
            images = [self._maps.ambient.generator(i).coords for i in range(r)]
        images = [tuple(x % modulus for x in img) for img in images]
        if len(images) != r or any(len(img) != self.k for img in images):
            raise ValueError(f"need {r} generator images of length {self.k}")
        self.images = tuple(images)

    def _check_order(self):
        # m >= 2, so m^k exceeds MAX_ORDER once k exceeds its bit length;
        # a power too long to print is stated as m^k
        m, k = self.modulus, self.k
        if k <= MAX_ORDER.bit_length() and m ** k <= MAX_ORDER:
            return
        order = m ** k if k * m.bit_length() <= 4096 else f"{m}^{k}"
        raise ResourceLimitError(
            f"group order {order} exceeds the bound {MAX_ORDER}")

    @staticmethod
    def identity_twist(r, c, modulus):
        return FiniteTwistedSetup(r, c, modulus)

    @staticmethod
    def from_abelian_matrix(matrix, modulus):
        """Abelian specialization: class 1, endomorphism given by the matrix."""
        if not matrix.is_square:
            raise ValueError("endomorphism matrix must be square")
        images = [tuple(matrix[i, j] for i in range(matrix.rows))
                  for j in range(matrix.cols)]
        return FiniteTwistedSetup(matrix.rows, 1, modulus, images)

    # -- reduced group operations -------------------------------------------

    def group_order(self):
        return self.modulus ** self.k

    def multiply(self, a, b):
        values = tuple(a) + tuple(b)
        return tuple(_eval_reduced(poly, values, self.modulus)
                     for poly in self._mult)

    def inverse(self, a):
        # the inverse map has coefficients in Z_(p) too, so the exact
        # inverse reduced mod m is the reduced map's value
        return tuple(x % self.modulus
                     for x in self._maps.ambient.inverse_coords(a))

    def move_maps(self):
        """Per generator z_i, the k polynomials of x -> z_i x phi(z_i)^-1.

        Two ``MPoly.substitute`` calls on the multiplication polynomials:
        z_i for u with u for v gives z_i x in the variables u, then those
        results for u with phi(z_i)^-1 for v give the move.  Each move is
        reduced mod m once, at the end.
        """
        names, mult = self._maps.names, self._maps.mult
        us, vs = names[:self.k], names[self.k:]
        x = {v: MPoly.variable(names, u) for u, v in zip(us, vs)}
        maps = []
        for i in range(self.r):
            z = dict(zip(us, self._maps.ambient.generator(i).coords))
            zx = dict(zip(us, (poly.substitute({**z, **x}) for poly in mult)))
            w = dict(zip(vs, self.inverse(self.images[i])))
            maps.append([_reduce(poly.substitute({**zx, **w}), self.modulus)
                         for poly in mult])
        return maps


def _fiber_split(polys, kl):
    """A move's low maps and top shifts; ValueError off the fiber shape."""
    rests = [tuple(t for t in poly if t != (1, ((j, 1),)))
             for j, poly in enumerate(polys)]
    for j, (poly, rest) in enumerate(zip(polys, rests)):
        if (j >= kl and len(rest) == len(poly)) or any(
                v >= kl for _, factors in rest for v, _ in factors):
            raise ValueError(f"move coordinate {j} breaks the fiber shape")
    return polys[:kl], rests[kl:]


def _subgroup_order(gens, m):
    """Order of the subgroup of (Z/m)^n, m = p^e, generated by ``gens``.

    An echelon pass, column by column.  The pivot is a row of least
    p-valuation v in the column, whose entry there has gcd p^v with m;
    scaled by the inverse of its unit part to p^v, it clears the column
    from the other rows and contributes p^(e-v), the order of the column's
    image.  p^(e-v) times the pivot row is zero in the column but, for
    e >= 2, not always in later ones: with the cleared rows it generates
    the kernel, so it stays as a row.
    """
    rows = [list(g) for g in gens if any(g)]
    order = 1
    for col in range(len(rows[0]) if rows else 0):
        live = [(gcd(row[col], m), i)
                for i, row in enumerate(rows) if row[col]]
        if not live:
            continue
        low, i = min(live)
        pivot = rows.pop(i)
        unit = pow(pivot[col] // low, -1, m)
        pivot = [a * unit % m for a in pivot]
        rows = [[(a - row[col] // low * b) % m for a, b in zip(row, pivot)]
                for row in rows]
        order *= m // low
        rows.append([a * (m // low) % m for a in pivot])
        rows = [row for row in rows if any(row)]
    return order


def brute_force_twisted_classes(setup):
    """Exact orbit count of x ~ z x phi(z)^-1, over the low points.

    The relation is the orbit partition of a group action, so moves by
    the r generators already connect every orbit.  Write x = (l, t), l in
    Low = (Z/m)^kl the coordinates of degree below the class and t in
    T = (Z/m)^(k-kl) the central top ones.  Each move sends (l, t) to
    (f(l), t + s(l)) (``_fiber_split`` checks that shape), so it is
    evaluated once per low point.  A union-find over the low points keeps,
    per point, a potential in T: (l, t) lies in the orbit of
    (root, t + pot(l)).  An edge that closes a cycle yields the generator
    s(l) + pot(f(l)) - pot(l) of the stabiliser subgroup H of its
    component O, and the orbits over O are the cosets T / H.  So the count
    is the sum over components of m^(k-kl) / |H| (``_subgroup_order``).
    """
    if setup.r == 0:
        return 1
    m, k = setup.modulus, setup.k
    kl = k - witt_dimension(setup.r, setup.c)
    moves = [_fiber_split(polys, kl) for polys in setup.move_maps()]
    zero = (0,) * (k - kl)
    parent, pot = list(range(m ** kl)), [zero] * m ** kl

    def find(x):
        """The root of x and pot(x), compressing the path from x."""
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        acc = zero
        for y in reversed(path):
            acc = tuple((a + b) % m for a, b in zip(pot[y], acc))
            parent[y], pot[y] = x, acc
        return x, acc

    cycles = []
    # low point l has index sum_j l_j m^(kl-1-j), the order of product()
    for ix, x in enumerate(product(range(m), repeat=kl)):
        for low, shifts in moves:
            iy = 0
            for poly in low:
                iy = iy * m + _eval_reduced(poly, x, m)
            rx, px = find(ix)
            ry, py = find(iy)
            g = tuple((_eval_reduced(s, x, m) + b - a) % m
                      for s, a, b in zip(shifts, px, py))
            if rx != ry:
                parent[ry], pot[ry] = rx, tuple(-a % m for a in g)
            elif any(g):
                cycles.append((rx, g))
    stabilisers = {x: [] for x in range(m ** kl) if parent[x] == x}
    for x, g in cycles:
        stabilisers[find(x)[0]].append(g)
    return sum(m ** (k - kl) // _subgroup_order(gens, m)
               for gens in stabilisers.values())


def spectrum_crosscheck(s, table, i):
    """Degree-i tower charpoly equals prod R_pi^L(pi), the "free" one.

    That checks each eigenvalue of M_i, with its multiplicity, against the
    i-fold products of base eigenvalues that the multigraded Witt numbers
    assign to degree i.
    """
    return charpoly(induced_tower(table, s).matrix(i)) == ShapeCharacter(
        charpoly(s), "free", i).charpoly(i)
