"""Independent brute-force checks for the twisted-conjugacy machinery.

Twisted conjugacy for x, y under an endomorphism phi identifies
x ~ z * x * phi(z)^-1.  On a finitely generated abelian group the class
count is the cokernel order of I - M, so the Smith normal form gives it
directly.  For nilpotent desk-scale checks we reduce the Malcev
coordinates of a free nilpotent group modulo a prime power p^e with
p exceeding the class: every denominator in the collection polynomials
is then invertible, the reduced coordinate maps define an honest finite
group of order m^k, and twisted classes can be counted by orbit
enumeration and compared against the exact linear-algebra predictions.

The spectrum check holds each induced tower on the free Lie ring to its
character: charpoly(M_i) computed from the tower must equal the one the
equivariant Witt formula reads off charpoly(S), multiplicities included.
"""

from math import gcd, lcm

from .errors import ResourceLimitError
from .intlinalg import IntMatrix, charpoly, smith_normal_form
from .freelie import SurfaceCharacter, induced_tower
from .mvpoly import MPoly
from .nilpotent import free_nilpotent_group, ser_inv, ser_mul

DEFAULT_MAX_ORDER = 10 ** 6

_MAP_CACHE = {}


def abelian_reidemeister_count(m):
    """Twisted class count |coker(I - M)| on Z^n, or None when infinite.

    Equals |det(I - M)| when that determinant is nonzero; computed as the
    product of the Smith invariant factors of I - M.
    """
    if not m.is_square:
        raise ValueError("endomorphism matrix must be square")
    delta = IntMatrix.identity(m.rows) - m
    return smith_normal_form(delta).cokernel_order()


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_power_base(m):
    for p in range(2, m + 1):
        if _is_prime(p) and m % p == 0:
            q = m
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    return None


class _CoordinateMaps:
    """Multiplication and inversion of N_{r,c} as integer polynomial maps.

    Each output coordinate is a polynomial in the inputs with rational
    coefficients whose denominators only involve primes <= c; they are
    stored cleared to integer polynomials plus one denominator each.
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
        self.mult = self._clear_denominators(
            amb.peel(ser_mul(series_u, series_v, amb.c), one))
        self.inv = self._clear_denominators(amb.peel(ser_inv(series_u, amb.c, one), one))

    @staticmethod
    def _clear_denominators(polys):
        cleared = []
        for poly in polys:
            den = poly.denominator_lcm()
            terms = {}
            for exps, coeff in poly.terms.items():
                val = coeff * den
                assert val.denominator == 1
                terms[exps] = val.numerator
            cleared.append((den, terms))
        return cleared

    def denominators(self):
        out = 1
        for den, _ in self.mult:
            out = lcm(out, den)
        for den, _ in self.inv:
            out = lcm(out, den)
        return out


def _coordinate_maps(r, c):
    key = (r, c)
    maps = _MAP_CACHE.get(key)
    if maps is None:
        maps = _CoordinateMaps(r, c)
        _MAP_CACHE[key] = maps
    return maps


def _eval_cleared(cleared, values, m):
    """Evaluate one cleared coordinate polynomial modulo m."""
    den, terms = cleared
    acc = 0
    for exps, coeff in terms.items():
        val = coeff
        for x, e in zip(values, exps):
            if e:
                val *= x ** e
        acc += val
    if den == 1:
        return acc % m
    return (acc * pow(den, -1, m)) % m


class FiniteTwistedSetup:
    """Twisted-conjugacy instance on N_{r,c} reduced modulo a prime power.

    The modulus must be p^e with p > c so the reduced coordinate maps are
    well defined; the endomorphism is given by the images of the r
    generators as coordinate tuples.
    """

    def __init__(self, r, c, modulus, images=None, max_order=DEFAULT_MAX_ORDER):
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
        self.max_order = max_order
        if r == 0:
            self.k = 0
            self.images = ()
            return
        self._maps = _coordinate_maps(r, c)
        if gcd(self._maps.denominators(), modulus) != 1:
            raise ValueError("collection denominators are not invertible")
        self.k = self._maps.ambient.k
        if images is None:
            images = [self._maps.ambient.generator(i).coords for i in range(r)]
        images = [tuple(x % modulus for x in img) for img in images]
        if len(images) != r or any(len(img) != self.k for img in images):
            raise ValueError(f"need {r} generator images of length {self.k}")
        self.images = tuple(images)

    @staticmethod
    def identity_twist(r, c, modulus, max_order=DEFAULT_MAX_ORDER):
        return FiniteTwistedSetup(r, c, modulus, max_order=max_order)

    @staticmethod
    def from_abelian_matrix(matrix, modulus, max_order=DEFAULT_MAX_ORDER):
        """Abelian specialization: class 1, endomorphism given by the matrix."""
        if not matrix.is_square:
            raise ValueError("endomorphism matrix must be square")
        images = [tuple(matrix[i, j] for i in range(matrix.rows))
                  for j in range(matrix.cols)]
        return FiniteTwistedSetup(matrix.rows, 1, modulus, images,
                                  max_order=max_order)

    # -- reduced group operations -------------------------------------------

    def group_order(self):
        return self.modulus ** self.k

    def multiply(self, a, b):
        values = tuple(a) + tuple(b)
        return tuple(_eval_cleared(cl, values, self.modulus)
                     for cl in self._maps.mult)

    def inverse(self, a):
        values = tuple(a) + (0,) * self.k
        return tuple(_eval_cleared(cl, values, self.modulus)
                     for cl in self._maps.inv)


def brute_force_twisted_classes(setup):
    """Exact orbit count of x ~ z x phi(z)^-1 by generator-move union-find.

    The relation is the orbit partition of a group action, so moves by
    the r generators already connect every orbit.
    """
    if setup.r == 0:
        return 1
    order = setup.group_order()
    if order > setup.max_order:
        raise ResourceLimitError(
            f"group order {order} exceeds the bound {setup.max_order}")
    m = setup.modulus
    k = setup.k
    parent = list(range(order))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    def encode(coords):
        acc = 0
        for x in reversed(coords):
            acc = acc * m + x
        return acc

    def decode(idx):
        out = []
        for _ in range(k):
            idx, rem = divmod(idx, m)
            out.append(rem)
        return tuple(out)

    movers = []
    for i in range(setup.r):
        z = tuple(setup._maps.ambient.generator(i).coords)
        phi_z_inv = setup.inverse(setup.images[i])
        movers.append((z, phi_z_inv))

    for idx in range(order):
        x = decode(idx)
        for z, phi_z_inv in movers:
            moved = setup.multiply(setup.multiply(z, x), phi_z_inv)
            union(idx, encode(moved))
    return sum(1 for idx in range(order) if find(idx) == idx)


def spectrum_crosscheck(s, table, i):
    """Degree-i tower charpoly equals the free Lie character's.

    The free ring is the eps = 0 case of ``SurfaceCharacter``, so the
    equality checks each eigenvalue of M_i, with its multiplicity,
    against the i-fold products of base eigenvalues that the equivariant
    Witt formula assigns to degree i.
    """
    upstairs = charpoly(induced_tower(table, s).matrix(i))
    return upstairs == SurfaceCharacter(charpoly(s), 0, i).charpoly(i)
