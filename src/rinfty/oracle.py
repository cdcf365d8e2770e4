"""Independent brute-force checks for the twisted-conjugacy machinery.

Twisted conjugacy for x, y under an endomorphism phi identifies
x ~ z * x * phi(z)^-1.  On a finitely generated abelian group the class
count is the cokernel order of I - M, which is |det(I - M)| when that
is nonzero.  For nilpotent desk-scale checks we reduce the Malcev
coordinates of a free nilpotent group modulo a prime power p^e with
p exceeding the class: every denominator in the collection polynomials
is then invertible, the reduced coordinate maps define an honest finite
group of order m^k, and twisted classes can be counted by orbit
enumeration and compared against the exact linear-algebra predictions.

The enumeration works with the multiplication map over Z/m.  Each
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
move; the count evaluates each move once per low point and streams the
images of that point's fiber, a translate of it, without storing them.

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

# the largest group order m^k admitted; one crosscheck process, 2-core x86:
# 15,625 elements 0.14 s 18 MB, 390,625 0.66 s 32 MB, 912,673 1.1 s 52 MB
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


def _fiber_images(move, x, weights, m):
    """Indices of the ``move`` images of the fiber of low point x, in index
    order: k evaluations, then sums of rotated top digits."""
    low, shifts = move
    base = sum(w * _eval_reduced(p, x, m) for w, p in zip(weights, low))
    tops = [_eval_reduced(s, x, m) for s in shifts]
    rotations = [[w * ((t + s) % m) for t in range(m)]
                 for w, s in zip(weights[len(x):], tops)]
    return map(sum, product([base], *rotations))


def brute_force_twisted_classes(setup):
    """Exact orbit count of x ~ z x phi(z)^-1 by generator-move union-find.

    The relation is the orbit partition of a group action, so moves by
    the r generators already connect every orbit.  Per low point and move
    (``_fiber_split``) the fiber's images (``_fiber_images``) are unioned
    with it.  Classes are the order less the successful unions; class 1
    is one fiber.
    """
    if setup.r == 0:
        return 1
    m, k = setup.modulus, setup.k
    kl = k - witt_dimension(setup.r, setup.c)
    moves = [_fiber_split(polys, kl) for polys in setup.move_maps()]
    order, fiber = m ** k, m ** (k - kl)
    # element x has index sum_j x_j m^(k-1-j), the order of product()
    weights = [m ** (k - 1 - j) for j in range(k)]
    parent = list(range(order))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    unions = 0
    for start, x in zip(range(0, order, fiber), product(range(m), repeat=kl)):
        for move in moves:
            for src, dst in enumerate(_fiber_images(move, x, weights, m),
                                      start):
                rx, ry = find(src), find(dst)
                if rx != ry:
                    parent[ry] = rx
                    unions += 1
    return order - unions


def spectrum_crosscheck(s, table, i):
    """Degree-i tower charpoly equals prod R_pi^L(pi), the "free" one.

    That checks each eigenvalue of M_i, with its multiplicity, against the
    i-fold products of base eigenvalues that the multigraded Witt numbers
    assign to degree i.
    """
    return charpoly(induced_tower(table, s).matrix(i)) == ShapeCharacter(
        charpoly(s), "free", i).charpoly(i)
