"""Free nilpotent groups in Malcev coordinates.

An element of the free c-step nilpotent group N_{r,c} is a product
a_1^{x_1} a_2^{x_2} ... a_k^{x_k} over the polycyclic generating
sequence a_1, ..., a_k of iterated group commutators shaped by the Hall
basis (a_1 = a, a_2 = b, a_3 = [a,b], ...), with integer exponents as
the coordinates.  Arithmetic runs inside the rational Malcev completion,
realized concretely in the free associative algebra truncated at word
length c: group elements are exponential series, kept as their c + 1
homogeneous parts, so the truncated product multiplies only the parts
whose degrees sum to at most c.  Powers and roots are one map
exp(t * log) (``ring_power``), and normal-form coordinates are peeled
off one homogeneous part at a time.  Coefficients are exact: integer
numerators over one common denominator per series, Fractions only at the
boundary; coordinates of group elements are exact integers.

The same map run with polynomial coefficients yields the power
polynomials q_i with u^m = prod a_i^(m x_i + q_i(x_1..x_{i-1}, m)), and
the padding exponents f(n, c) with x^n y^f = (x z)^n.
"""

from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm

from .freelie import _vec_add, build_hall_basis
from .intlinalg import IntMatrix
from .mvpoly import MPoly


# ---------------------------------------------------------------------------
# truncated free associative series with generic coefficients
# ---------------------------------------------------------------------------
#
# A series truncated at class c is a pair (den, parts): c + 1 homogeneous
# parts, part d the dict {word tuple of length d: numerator}, over one
# positive denominator, in lowest form, so equal series are equal pairs.
# Numerators are ints for group arithmetic and integer-coefficient MPoly
# for the symbolic tables.

def ser_unit(c, one=1):
    """The series 1, truncated at class c, over the ring of ``one``."""
    return 1, [{(): one}] + [{} for _ in range(c)]

def _normal(den, parts):
    """The series parts / den over its least denominator."""
    g = gcd(den, *(c for part in parts for v in part.values() for c in
                   (v.terms.values() if isinstance(v, MPoly) else (v,))))
    if g == 1:
        return den, parts
    return den // g, [{w: v // g for w, v in part.items()} for part in parts]

def _part_mul(out, pa, pb):
    """out += pa * pb for homogeneous parts; zero entries are kept."""
    for wa, ca in pa.items():
        for wb, cb in pb.items():
            w = wa + wb
            val = ca * cb
            cur = out.get(w)
            out[w] = val if cur is None else cur + val
    return out

def ser_mul(a, b):
    """Product at class c: part i meets the parts j <= c - i."""
    (da, pa), (db, pb) = a, b
    c = len(pa) - 1
    out = [{} for _ in pa]
    for i, part in enumerate(pa):
        if part:
            for j in range(c + 1 - i):
                _part_mul(out[i + j], part, pb[j])
    return _normal(da * db,
                   [{w: v for w, v in part.items() if v} for part in out])

def ser_add(*pairs):
    """The sum of q * s over the pairs (q, s), each q a rational scale."""
    den = lcm(*(q.denominator * s[0] for q, s in pairs))
    out = [{} for _ in pairs[0][1][1]]
    for q, (d, parts) in pairs:
        for acc, part in zip(out, parts):
            _vec_add(acc, part, den // (q.denominator * d) * q.numerator)
    return _normal(den, out)

def ser_scale(a, s):
    """s * a for s an int, Fraction or MPoly: numerator over denominator."""
    den, parts = a
    n = s.numerator
    if not n:
        return 1, [{} for _ in parts]
    return _normal(den * s.denominator,
                   [{w: n * v for w, v in part.items()} for part in parts])

def _ser_sum(n, start, coeff):
    """start + sum over j >= 1 of coeff(j) * n^j.

    n has zero constant term, so its powers vanish past n^c.
    """
    pairs, term = [(1, start)], n
    for j in range(1, len(n[1])):
        if not any(term[1]):
            break
        pairs.append((coeff(j), term))
        term = ser_mul(term, n)
    return ser_add(*pairs)

def ser_exp(ell, one=1):
    """exp of a series with zero constant term."""
    if ell[1][0]:
        raise ValueError("exp needs a series with zero constant term")
    return _ser_sum(ell, ser_unit(len(ell[1]) - 1, one),
                    lambda j: Fraction(1, factorial(j)))

def _unit_tail(e):
    """e - 1 for a series with constant term 1."""
    if e[1][0] != {(): e[0]}:
        raise ValueError("series must have constant term 1")
    return e[0], [{}] + e[1][1:]

def ser_log(e):
    """log of a series with constant term 1."""
    return _ser_sum(_unit_tail(e), (1, [{} for _ in e[1]]),
                    lambda j: Fraction((-1) ** (j - 1), j))

def ser_inv(e):
    """Inverse of a series with constant term 1."""
    return _ser_sum(_unit_tail(e), ser_unit(len(e[1]) - 1, e[1][0][()] // e[0]),
                    lambda j: (-1) ** j)


class FreeNilpotentGroup:
    """Ambient N_{r,c} with its Malcev coordinate system."""

    def __init__(self, r, c):
        if r < 1 or c < 1:
            raise ValueError("need r >= 1 and c >= 1")
        self.r = r
        self.c = c
        self.table = build_hall_basis(r, c)
        self.basis = []  # (degree, local) in peel order
        for d in range(1, c + 1):
            for local in range(self.table.dim(d)):
                self.basis.append((d, local))
        self.k = len(self.basis)
        self._lie_series = {}
        self._log_series = {}
        self._exp_series = {}
        self._solvers = {}
        self.identity_coords = (0,) * self.k

    # -- basis series ------------------------------------------------------

    def lie_series(self, d, local):
        """The Hall word as a Lie element: its degree-d part, in ints."""
        key = (d, local)
        cached = self._lie_series.get(key)
        if cached is None:
            w = self.table.words(d)[local]
            if w.left is None:
                cached = {(w.tree,): 1}
            else:
                a = self.lie_series(w.left.degree, w.left.local)
                b = self.lie_series(w.right.degree, w.right.local)
                ab = _vec_add(_part_mul({}, a, b), _part_mul({}, b, a), -1)
                cached = {w: v for w, v in ab.items() if v}
            self._lie_series[key] = cached
        return cached

    def log_basis(self, d, local):
        """log of the basis group element a_j (iterated group commutator)."""
        key = (d, local)
        cached = self._log_series.get(key)
        if cached is None:
            w = self.table.words(d)[local]
            if w.left is None:
                cached = (1, [{} for _ in range(self.c + 1)])
                cached[1][d] = dict(self.lie_series(d, local))
            else:
                u, v = self._exp_basis(w.left), self._exp_basis(w.right)
                comm = ser_mul(ser_mul(ser_inv(u), ser_inv(v)), ser_mul(u, v))
                cached = ser_log(comm)
            self._log_series[key] = cached
        return cached

    def _exp_basis(self, h):
        """The series of the basis element of Hall word h, kept per group."""
        if h not in self._exp_series:
            self._exp_series[h] = ser_exp(self.log_basis(h.degree, h.local))
        return self._exp_series[h]

    # -- Lie coordinate extraction -----------------------------------------

    def _solver(self, d):
        """Pivot monomials, inverse matrix times scale, scale, Hall series.

        The degree-d Hall elements expand over the words as the columns of
        an integer matrix A.  One fraction-free Gauss-Jordan pass on
        [A^T | I] brings A^T to echelon form E A^T, diagonal on its pivot
        columns P (the pivot monomials), so with each row over its pivot E
        is the transpose of the inverse of A restricted to the rows P.
        Lie coordinates are unique, so any pivot set gives them.
        """
        cached = self._solvers.get(d)
        if cached is not None:
            return cached
        h = self.table.dim(d)
        cols = [self.lie_series(d, local) for local in range(h)]
        monos = sorted({w for col in cols for w in col})
        work = [[col.get(w, 0) for w in monos] + [int(i == j) for j in range(h)]
                for i, col in enumerate(cols)]
        pivots, heads = [], []
        for j, w in enumerate(monos):
            rank = len(pivots)
            pick = next((i for i in range(rank, h) if work[i][j]), None)
            if pick is None:
                continue
            work[rank], work[pick] = work[pick], work[rank]
            top = work[rank]
            for i, row in enumerate(work):
                if i != rank and row[j]:
                    row = [top[j] * x - row[j] * y for x, y in zip(row, top)]
                    g = gcd(*row)
                    work[i] = [x // g for x in row]
            pivots.append(w)
            heads.append(j)
        assert len(pivots) == h, "hall expansions are independent"
        scale = lcm(*(work[i][j] for i, j in enumerate(heads)))
        inverse = [[row[len(monos) + j] * (scale // row[i_head])
                    for row, i_head in zip(work, heads)] for j in range(h)]
        solver = (pivots, inverse, scale, cols)
        self._solvers[d] = solver
        return solver

    def lie_coordinates(self, part, d, den=1):
        """Hall-basis coordinates of the homogeneous Lie element part / den."""
        pivot_monos, inverse, scale, cols = self._solver(d)
        v = [part.get(w, 0) for w in pivot_monos]
        nums = [sum(r * x for r, x in zip(row, v) if r) for row in inverse]
        # defensive: the degree-d part must be exactly the claimed combination
        recon = {}
        for x, col in zip(nums, cols):
            if x:
                _vec_add(recon, col, x)
        if recon != {w: scale * val for w, val in part.items() if val}:
            raise AssertionError("degree part is not a Lie element")
        return [x * Fraction(1, scale * den) for x in nums]

    # -- coordinates <-> series ---------------------------------------------

    def series_from_coords(self, coords, one=1):
        """The series of prod a_i^{x_i}; coordinates may be ring elements."""
        out = ser_unit(self.c, one)
        for (dl, x) in zip(self.basis, coords):
            if x:
                out = ser_mul(out, ser_exp(ser_scale(self.log_basis(*dl), x),
                                           one))
        return out

    def peel(self, series, one=1):
        """Normal-form exponents of a group series, degree by degree."""
        w = series
        coords = []
        for d in range(1, self.c + 1):
            xs = [x * one for x in self.lie_coordinates(w[1][d], d, w[0])]
            for local, x in enumerate(xs):
                if x:
                    log_a = self.log_basis(d, local)
                    w = ser_mul(ser_exp(ser_scale(log_a, -x), one), w)
            coords.extend(xs)
        if w != ser_unit(self.c, one):
            raise AssertionError("peel left a non-identity residue")
        return coords

    # -- group operations on raw coordinate tuples ---------------------------

    def multiply_coords(self, a, b):
        prod = ser_mul(self.series_from_coords(a), self.series_from_coords(b))
        return _as_int_tuple(self.peel(prod))

    def inverse_coords(self, a):
        inv = ser_inv(self.series_from_coords(a))
        return _as_int_tuple(self.peel(inv))

    def ring_power(self, coords, t, one=1):
        """Coordinates of (prod a_i^{x_i})^t, as peel(exp(t * log(series))).

        The coordinates and t are fractions of the ring of ``one``: ints
        and Fractions for powers and roots, ``MPoly`` for symbolic tables.
        """
        log = ser_log(self.series_from_coords(coords, one))
        return self.peel(ser_exp(ser_scale(log, t), one), one)

    def power_coords(self, a, n):
        return _as_int_tuple(self.ring_power(a, n))

    def root_coords(self, a, s):
        coords = self.ring_power(a, Fraction(1, s))
        if any(x.denominator != 1 for x in coords):
            return None
        return tuple(x.numerator for x in coords)

    # -- elements ------------------------------------------------------------

    def element(self, coords):
        return MalcevElement(self, tuple(int(x) for x in coords))

    @property
    def identity(self):
        return MalcevElement(self, self.identity_coords)

    def generator(self, i):
        if not 0 <= i < self.r:
            raise ValueError(f"generator index {i} outside 0..{self.r - 1}")
        coords = [0] * self.k
        coords[i] = 1
        return MalcevElement(self, tuple(coords))

    def generators(self):
        return [self.generator(i) for i in range(self.r)]

    def __repr__(self):
        return f"FreeNilpotentGroup(r={self.r}, c={self.c})"


def _as_int_tuple(fracs):
    out = []
    for x in fracs:
        if x.denominator != 1:
            raise AssertionError("group arithmetic left the integer lattice")
        out.append(x.numerator)
    return tuple(out)


@cache
def free_nilpotent_group(r, c):
    """Shared immutable ambient for N_{r,c}."""
    return FreeNilpotentGroup(r, c)


class MalcevElement:
    """Group element as its integer Malcev coordinate vector."""

    __slots__ = ("ambient", "coords")

    def __init__(self, ambient, coords):
        if len(coords) != ambient.k:
            raise ValueError(f"need {ambient.k} coordinates, got {len(coords)}")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "coords", tuple(int(x) for x in coords))

    def __setattr__(self, name, value):
        raise AttributeError("MalcevElement is immutable")

    def _check_same(self, other):
        amb = self.ambient
        if not isinstance(other, MalcevElement) or other.ambient is not amb:
            if (isinstance(other, MalcevElement)
                    and (other.ambient.r, other.ambient.c) == (amb.r, amb.c)):
                return
            raise ValueError("elements live in different ambient groups")

    def __mul__(self, other):
        self._check_same(other)
        return MalcevElement(self.ambient,
                             self.ambient.multiply_coords(self.coords, other.coords))

    def inverse(self):
        return MalcevElement(self.ambient, self.ambient.inverse_coords(self.coords))

    def __pow__(self, n):
        if n == 0:
            return self.ambient.identity
        return MalcevElement(self.ambient, self.ambient.power_coords(self.coords, n))

    def abelianized(self):
        """Images of the element in the free abelianization Z^r."""
        return self.coords[:self.ambient.r]

    def __eq__(self, other):
        return (isinstance(other, MalcevElement)
                and (self.ambient.r, self.ambient.c) ==
                    (other.ambient.r, other.ambient.c)
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.ambient.r, self.ambient.c, self.coords))

    def __repr__(self):
        return f"MalcevElement(r={self.ambient.r}, c={self.ambient.c}, {list(self.coords)})"


def nth_root(u, s):
    """The v with v^s = u when one exists over the integers, else None.

    Roots are unique in the torsion-free Malcev completion, so the unique
    rational solution is computed and returned exactly when all of its
    coordinates are integers.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    coords = u.ambient.root_coords(u.coords, s)
    if coords is None:
        return None
    return MalcevElement(u.ambient, coords)


# ---------------------------------------------------------------------------
# power polynomial table
# ---------------------------------------------------------------------------

class PowerPolynomialTable:
    """Exact polynomials q_i with u^m = prod a_i^(m x_i + q_i(x<i, m))."""

    def __init__(self, ambient, variables, polys):
        self.ambient = ambient
        self.variables = variables
        self.polys = tuple(polys)

    def q(self, i):
        """q_i for the 1-based coordinate index i."""
        return self.polys[i - 1]

    def power_coordinates(self, coords, m):
        """Evaluate the table: coordinates of (element with coords)^m."""
        amb = self.ambient
        assign = {f"x{j + 1}": coords[j] for j in range(amb.k)}
        assign["m"] = m
        out = []
        for j in range(amb.k):
            val = m * Fraction(coords[j]) + self.polys[j].evaluate(assign)
            if val.denominator != 1:
                raise AssertionError("power table produced a non-integer")
            out.append(val.numerator)
        return tuple(out)


def build_power_table(r, c):
    """Symbolic power polynomials for N_{r,c} (q_2 = 0; q_i(m=1) = 0)."""
    amb = free_nilpotent_group(r, c)
    names = tuple(f"x{j + 1}" for j in range(amb.k)) + ("m",)
    xs = [MPoly.variable(names, f"x{j + 1}") for j in range(amb.k)]
    mv = MPoly.variable(names, "m")
    one = MPoly.constant(names, 1)
    coords = amb.ring_power(xs, mv, one)
    polys = []
    for j in range(amb.k):
        q = coords[j] - mv * xs[j]
        if q.substitute({"m": 1}) != MPoly.constant(names, 0):
            raise AssertionError("q_i(m=1) must vanish")
        for later in range(j, amb.k):
            if q.uses_variable(f"x{later + 1}"):
                raise AssertionError("q_i must only use earlier coordinates")
        polys.append(q)
    if amb.k >= 2 and polys[1]:
        raise AssertionError("q_2 must be identically zero")
    return PowerPolynomialTable(amb, names, polys)


# ---------------------------------------------------------------------------
# padding identity: x^n y^f = (x z)^n
# ---------------------------------------------------------------------------

@cache
def padding_data(n, c):
    """The exponent f(n, c) and the coordinate polynomials of z in N_{2,c}.

    Over Q[m], z = a^-1 (a^n b^m)^{1/n} solves a^n b^m = (a z)^n.  The
    normal form of a^n b^m is (n, m, 0, ..., 0), and a = a_1 leads the
    normal form, so z has the coordinates of the root with the first
    lowered by one: polynomials in m with no constant term.  f(n, c) is
    the lcm of all their denominators, so m = f(n, c) makes z integral.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    amb = free_nilpotent_group(2, c)
    one = MPoly.constant(("m",), 1)
    normal_form = [n * one, MPoly.variable(("m",), "m")] + [0] * (amb.k - 2)
    root = amb.ring_power(normal_form, Fraction(1, n), one)
    coords = [root[0] - 1] + root[1:]
    if coords[0]:
        raise AssertionError("z must have no component on the first generator")
    for q in coords:
        if q.constant_term():
            raise AssertionError("z coordinates must vanish at m = 0")
    return lcm(*(q.denominator_lcm() for q in coords)), tuple(coords)


def padding_exponent(n, c):
    """f(n, c): the power of y that x^n absorbs into a single n-th power."""
    return padding_data(n, c)[0]


def _commutator_image(tree, memo):
    """Image of a Hall tree, with generator and subtree images in ``memo``."""
    if tree not in memo:
        u, v = (_commutator_image(t, memo) for t in tree)
        memo[tree] = u.inverse() * v.inverse() * u * v
    return memo[tree]


def power_padding(n, x, y):
    """(f, z) with x^n * y^f = (x * z)^n exactly and z in <y, gamma_2>.

    z is the image of the universal solution z in N_{2,c} of
    ``padding_data`` under the homomorphism sending a, b to x, y.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    x._check_same(y)
    amb = x.ambient
    f, coord_polys = padding_data(n, amb.c)
    amb2 = free_nilpotent_group(2, amb.c)
    z = amb.identity
    memo = {0: x, 1: y}
    for (dl, q) in zip(amb2.basis, coord_polys):
        if not q:
            continue
        val = q.evaluate({"m": f})
        if val.denominator != 1:
            raise AssertionError("padding exponents must be integral at m = f")
        if val == 0:
            continue
        word = amb2.table.words(dl[0])[dl[1]]
        z = z * (_commutator_image(word.tree, memo) ** val.numerator)
    if (x ** n) * (y ** f) != (x * z) ** n:
        raise AssertionError("padding identity failed to verify")
    return f, z


def free_rank_certificate(elements):
    """True when the abelianized images span a free abelian group of full rank.

    The listed elements then generate a free c-step nilpotent subgroup of
    the same rank.  The image matrix A has full row rank exactly when
    det(A A^T) != 0.
    """
    elements = list(elements)
    if not elements:
        return True
    amb = elements[0].ambient
    n = len(elements)
    if n > amb.r:
        raise ValueError(f"at most r = {amb.r} elements allowed, got {n}")
    a = IntMatrix([list(e.abelianized()) for e in elements])
    return (a @ a.transpose()).det() != 0
