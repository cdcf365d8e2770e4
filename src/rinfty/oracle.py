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

The enumeration works with the coordinate maps over Z/m.  Each
polynomial is reduced once per setup (coefficient times the inverse of
its denominator mod m), and each generator move x -> z x phi(z)^-1 is
composed once into k polynomials in the k coordinates of x.  Every
coefficient lies in Z_(p), reduction Z_(p) -> Z/p^e is a ring map, and
substitution commutes with ring maps, so the composed move equals
multiplying step by step and reducing at each step.

The spectrum check holds each induced tower on the free Lie ring to its
character: charpoly(M_i) computed from the tower must equal the one the
equivariant Witt formula reads off charpoly(S), multiplicities included.
"""

from itertools import product
from math import gcd, isqrt, lcm

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


def _prime_power_base(m):
    """The prime p with m = p^e, or None; trial division up to sqrt(m)."""
    p = next((d for d in range(2, isqrt(m) + 1) if m % d == 0), m)
    while m % p == 0:
        m //= p
    return p if m == 1 else None


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


def _sparse(poly):
    """{exps: coeff} as a tuple of (coeff, ((variable, exponent), ...))."""
    return tuple((coeff, tuple((v, e) for v, e in enumerate(exps) if e))
                 for exps, coeff in poly.items() if coeff)


def _reduce(cleared, m):
    """One cleared coordinate polynomial with coefficients coeff / den mod m."""
    den, terms = cleared
    inv = pow(den, -1, m)
    return _sparse({exps: coeff * inv % m for exps, coeff in terms.items()})


def _eval_reduced(poly, values, m):
    """Evaluate one reduced coordinate polynomial modulo m."""
    acc = 0
    for coeff, factors in poly:
        for v, e in factors:
            coeff *= values[v] ** e
        acc += coeff
    return acc % m


def _poly_mul(a, b, m):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % m
    return out


def _substitute(poly, values, one, m):
    """poly(values) mod m, where each value is an {exps: coeff} polynomial.

    ``one`` is the exponent tuple of the constant monomial of the values.
    """
    out = {}
    for coeff, factors in poly:
        term = {one: coeff}
        for v, e in factors:
            for _ in range(e):
                term = _poly_mul(term, values[v], m)
        for exps, c in term.items():
            out[exps] = (out.get(exps, 0) + c) % m
    return out


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
        self._mult = [_reduce(cl, modulus) for cl in self._maps.mult]
        self._inv = [_reduce(cl, modulus) for cl in self._maps.inv]
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
        return tuple(_eval_reduced(poly, values, self.modulus)
                     for poly in self._mult)

    def inverse(self, a):
        values = tuple(a) + (0,) * self.k
        return tuple(_eval_reduced(poly, values, self.modulus)
                     for poly in self._inv)

    def move_maps(self):
        """Per generator z_i, the k polynomials of x -> z_i x phi(z_i)^-1.

        Two substitutions into the reduced multiplication polynomials:
        first z_i into the left factor, then that result and the constant
        phi(z_i)^-1 into the left and right factors.
        """
        k, m = self.k, self.modulus
        one = (0,) * k
        xs = [{tuple(int(i == j) for i in range(k)): 1} for j in range(k)]

        def constants(coords):
            return [{one: x % m} if x % m else {} for x in coords]

        maps = []
        for i in range(self.r):
            z = self._maps.ambient.generator(i).coords
            zx = [_substitute(poly, constants(z) + xs, one, m)
                  for poly in self._mult]
            w = constants(self.inverse(self.images[i]))
            maps.append([_sparse(_substitute(poly, zx + w, one, m))
                          for poly in self._mult])
        return maps


def brute_force_twisted_classes(setup):
    """Exact orbit count of x ~ z x phi(z)^-1 by generator-move union-find.

    The relation is the orbit partition of a group action, so moves by
    the r generators already connect every orbit.  Each element, walked
    in index order, is joined to its r images under the composed move
    maps of ``FiniteTwistedSetup.move_maps``.
    """
    if setup.r == 0:
        return 1
    order = setup.group_order()
    if order > setup.max_order:
        raise ResourceLimitError(
            f"group order {order} exceeds the bound {setup.max_order}")
    m, k = setup.modulus, setup.k
    parent = list(range(order))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # element x has index sum_j x_j m^(k-1-j), the order of product()
    weights = [m ** (k - 1 - j) for j in range(k)]
    moves = [list(zip(weights, polys)) for polys in setup.move_maps()]
    for idx, x in enumerate(product(range(m), repeat=k)):
        for move in moves:
            target = 0
            for weight, poly in move:
                target += weight * _eval_reduced(poly, x, m)
            rx, ry = find(idx), find(target)
            if rx != ry:
                parent[ry] = rx
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
