"""Exact integer matrices and univariate integer polynomials.

Everything in here is arbitrary-precision and exact: determinants are
dense and fraction-free (Bareiss), characteristic polynomials
division-free (Berkowitz), and Smith normal forms carry their unimodular
transforms so results can be re-verified.  Only the matrix product skips
zero entries: the free Lie towers and their projections onto relator
quotients are mostly zero, while the matrices whose determinants are
taken are small and fill in under elimination.

Polynomials are integer-only as well.  Every spectrum composed from a
monic characteristic polynomial is a product of partition-shape factors
(ordered i-fold root products and symmetric powers alike), and each
factor comes from its power sums through Newton's identities, whose
divisions are exact over the integers.  No fractions, no floats.

All objects are immutable after construction, so values can be shared
freely between threads; every operation is a pure function.
"""

from collections import Counter
from functools import cache
from itertools import accumulate
from math import factorial, perm, prod


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_of_entries):
        rows = tuple(tuple(map(int, row)) for row in rows_of_entries)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity(n):
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows, cols):
        return IntMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def block_diag(blocks):
        blocks = list(blocks)
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[0] * m for _ in range(n)]
        i = j = 0
        for b in blocks:
            for r in range(b.rows):
                out[i + r][j:j + b.cols] = b.entries[r]
            i += b.rows
            j += b.cols
        return IntMatrix(out)

    # -- basic queries -----------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        return (isinstance(other, IntMatrix)
                and self.entries == other.entries
                and self.cols == other.cols)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return IntMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return IntMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return IntMatrix([[-a for a in row] for row in self.entries])

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix([[scalar * a for a in row] for row in self.entries])

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product that touches only nonzero pairs a[i][k] * b[k][j]."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        width = other.cols
        b_support = [[j for j, b in enumerate(row) if b]
                     for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * width
            for k, a in enumerate(row):
                if a:
                    b_row = other.entries[k]
                    for j in b_support[k]:
                        acc[j] += a * b_row[j]
            out.append(acc)
        return IntMatrix(out)

    def __pow__(self, k):
        if not self.is_square or k < 0:
            raise ValueError("matrix power needs a square base and k >= 0")
        result = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def transpose(self):
        return IntMatrix(list(zip(*self.entries)) if self.entries else [])

    def det(self):
        """Exact determinant by dense fraction-free (Bareiss) elimination.

        Step k swaps into row k the nonzero of least absolute value in
        column k at or below it, flipping the sign, then replaces each
        later entry by a 2x2 minor through the pivot, divided by the
        previous pivot.  Every such entry is a minor of the matrix, so the
        division is exact (Bareiss, Math. Comp. 22, 1968).
        """
        self._require_square()
        a = [list(row) for row in self.entries]
        n = len(a)
        sign = prev = 1
        for k in range(n):
            holders = [i for i in range(k, n) if a[i][k]]
            if not holders:
                return 0
            r = min(holders, key=lambda i: abs(a[i][k]))
            if r != k:
                a[k], a[r] = a[r], a[k]
                sign = -sign
            pivot, tail = a[k][k], a[k][k + 1:]
            for row in a[k + 1:]:
                m = row[k]
                row[k + 1:] = [(pivot * x - m * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
            prev = pivot
        return sign * prev

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def _require_square(self):
        if not self.is_square:
            raise ValueError(f"matrix is {self.rows}x{self.cols}, need square")

    # -- text format -------------------------------------------------

    def to_text(self):
        """Render as 'rows cols' header plus whitespace-separated rows."""
        lines = [f"{self.rows} {self.cols}"]
        lines += [" ".join(str(x) for x in row) for row in self.entries]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text, admit=lambda rows, cols: None):
        """Parse the 'rows cols' header, refusing a negative size, which
        ``admit(rows, cols)`` may also refuse before any body token is split
        or converted, then the body."""
        tokens = text.split(maxsplit=2)
        if len(tokens) < 2:
            raise ValueError("matrix text needs a 'rows cols' header")
        r, c = int(tokens[0]), int(tokens[1])
        if r < 0 or c < 0:
            raise ValueError(f"header size {r}x{c} is negative")
        admit(r, c)
        body = "".join(tokens[2:]).split()
        if len(body) != r * c:
            raise ValueError(f"expected {r * c} entries, got {len(body)}")
        return IntMatrix([[int(body[i * c + j]) for j in range(c)] for i in range(r)])


class IntPoly:
    """Immutable univariate polynomial with integer coefficients.

    Coefficients are stored ascending; the zero polynomial keeps an empty
    coefficient tuple and reports degree None (it never enters degree
    arithmetic as -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @staticmethod
    def zero():
        return IntPoly(())

    @staticmethod
    def one():
        return IntPoly((1,))

    @staticmethod
    def x_power(k):
        return IntPoly((0,) * k + (1,))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = IntPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def shift(self, k):
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = f"{mag}x" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append((" - " if c < 0 else " + ") + term)
        return "".join(parts)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def charpoly(m):
    """Monic characteristic polynomial det(xI - M), division-free.

    Uses the Berkowitz recursion: the coefficient vector of a trailing
    principal submatrix is pushed through a Toeplitz convolution per added
    row/column, so only integer additions and multiplications occur.
    """
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    m._require_square()
    n = m.rows
    if n == 0:
        return IntPoly.one()
    a = m.entries
    # descending coefficients of the trailing 1x1 block
    v = [1, -a[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        size = n - k
        # first column of the Toeplitz transform: 1, -a_kk, -R C, -R B C, ...
        col = [1, -a[k][k]]
        r_row = a[k][k + 1:]
        w = [a[i][k] for i in range(k + 1, n)]
        b_rows = [a[i][k + 1:] for i in range(k + 1, n)]
        for _ in range(size - 1):
            col.append(-sum(x * y for x, y in zip(r_row, w)))
            w = [sum(x * y for x, y in zip(row, w)) for row in b_rows]
        out = [0] * (size + 1)
        for i in range(size + 1):
            acc = 0
            for j in range(len(v)):
                d = i - j
                if 0 <= d < len(col):
                    acc += col[d] * v[j]
            out[i] = acc
        v = out
    return IntPoly(list(reversed(v)))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


class SmithDecomposition:
    """U*M*V = D with U, V unimodular and D = diag(d1 | d2 | ... >= 0)."""

    __slots__ = ("matrix", "u", "d", "v", "u_inv", "diagonal", "rank")

    def __init__(self, matrix, u, d, v, u_inv):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u_inv", u_inv)
        diag = tuple(d[i, i] for i in range(min(d.rows, d.cols)))
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "rank", sum(1 for x in diag if x != 0))

    def __setattr__(self, name, value):
        raise AttributeError("SmithDecomposition is immutable")


def smith_normal_form(m):
    """Smith normal form with U, U^-1 and V tracked and U*M*V = D re-verified."""
    if not isinstance(m, IntMatrix):
        m = IntMatrix(m)
    nrows, ncols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    ui = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_addmul(i, j, q):
        # row_i += q * row_j ; inverse transform: col_j of Ui -= q * col_i
        ai, aj = a[i], a[j]
        for t in range(ncols):
            ai[t] += q * aj[t]
        uiw, ujw = u[i], u[j]
        for t in range(nrows):
            uiw[t] += q * ujw[t]
        for row in ui:
            row[j] -= q * row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in ui:
            row[i] = -row[i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def row_combine(i, j, x, y, s, t):
        # (row_i, row_j) <- (x ri + y rj, s ri + t rj), with xt - ys = 1.
        # Inverse acts on columns of Ui as (ci, cj) <- (t ci - s cj, -y ci + x cj).
        for mat in (a, u):
            ri, rj = mat[i], mat[j]
            for k in range(len(ri)):
                ri[k], rj[k] = x * ri[k] + y * rj[k], s * ri[k] + t * rj[k]
        for row in ui:
            ci, cj = row[i], row[j]
            row[i] = t * ci - s * cj
            row[j] = -y * ci + x * cj

    def col_combine(i, j, x, y, s, t):
        # (col_i, col_j) <- (x ci + y cj, s ci + t cj), with xt - ys = 1.
        for mat in (a, v):
            for row in mat:
                ci, cj = row[i], row[j]
                row[i] = x * ci + y * cj
                row[j] = s * ci + t * cj

    def clear_position(t):
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                b = a[i][t]
                if b == 0:
                    continue
                p = a[t][t]
                if b % p == 0:
                    row_addmul(i, t, -(b // p))
                else:
                    g, x, y = _xgcd(p, b)
                    row_combine(t, i, x, y, -(b // g), p // g)
                    dirty = True
            for j in range(t + 1, ncols):
                b = a[t][j]
                if b == 0:
                    continue
                p = a[t][t]
                if b % p == 0:
                    col_addmul(j, t, -(b // p))
                    dirty = True  # column ops can refill the column below
                else:
                    g, x, y = _xgcd(p, b)
                    col_combine(t, j, x, y, -(b // g), p // g)
                    dirty = True
            if not any(a[i][t] for i in range(t + 1, nrows)) and \
               not any(a[t][j] for j in range(t + 1, ncols)):
                return
            if not dirty:  # pragma: no cover - elimination always progresses
                raise AssertionError("Smith elimination stalled")

    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        pivot = None
        best = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        clear_position(t)
        t += 1

    rank = t
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            p, q = a[i][i], a[i + 1][i + 1]
            if q % p != 0:
                col_addmul(i, i + 1, 1)
                clear_position(i)
                changed = True
    for i in range(rank):
        if a[i][i] < 0:
            row_negate(i)

    um = IntMatrix(u)
    vm = IntMatrix(v)
    dm = IntMatrix(a)
    uim = IntMatrix(ui)
    if (um @ m) @ vm != dm:
        raise AssertionError("Smith reconstruction U*M*V != D")
    return SmithDecomposition(m, um, dm, vm, uim)


# ---------------------------------------------------------------------------
# partition-shape spectra
# ---------------------------------------------------------------------------
#
# Every spectrum composed here is that of an integer matrix, so its
# polynomial is monic and all of the arithmetic below stays integral.

def _require_monic(p):
    if not p.is_monic:
        raise ValueError(f"product spectra need monic polynomials, got {p}")


def _power_sums(p, count, s=None):
    """Power sums s_1..s_count of the roots of monic p (s_0 is unused); a
    list ``s`` of the first ones is extended in place."""
    n = p.degree
    e = [1] + [(-1) ** i * p.coeffs[n - i] for i in range(1, n + 1)]
    s = [0] if s is None else s
    for k in range(len(s), count + 1):
        acc = 0
        for i in range(1, min(k, n) + 1):
            term = e[i] if i % 2 == 1 else -e[i]
            acc = acc + term * (k if i == k else s[k - i])
        s.append(acc)
    return s


def _monic_from_power_sums(s, n):
    """Monic polynomial (ascending coefficients) with power sums s_1..s_n.

    Newton's identities need one division by k per step; the power sums
    come from monic integer polynomials, so each division is exact.
    """
    e = [1] + [0] * n
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            term = s[i] * e[k - i]
            acc = acc + term if i % 2 == 1 else acc - term
        q, r = divmod(acc, k)
        if r:
            raise AssertionError("Newton recursion left the integers")
        e[k] = q
    return [((-1) ** (n - j)) * e[n - j] for j in range(n + 1)]


def _unit_reversal(p):
    """Monic polynomial of the reciprocal roots of monic p with p(0) = +-1."""
    r = IntPoly(reversed(p.coeffs))
    return r * r.leading


def split_at_one(p):
    """(v, q(1)) for p = (x - 1)^v q with q(1) != 0, by synthetic division."""
    c, v = p.coeffs, 0
    while c and sum(c) == 0:
        # quotient coefficient j is c_(j+1) + ... + c_n
        c = list(accumulate(reversed(c)))[-2::-1]
        v += 1
    return v, sum(c)


def partitions(d, parts, top=None):
    """Partitions of d into at most ``parts`` parts, as descending tuples."""
    if not d:
        yield ()
    for k in range(min(d, top or d) if parts else 0, 0, -1):
        yield from ((k,) + t for t in partitions(d - k, parts - 1, k))


def shape_degree(g, shape):
    """Contents of ``shape`` in g variables: g! / ((g - l)! prod mult!)."""
    return perm(g, len(shape)) // prod(factorial(shape.count(k))
                                       for k in set(shape))


@cache
def _augmented_terms(shape):
    """Augmented monomial sum over distinct i_j of prod lambda_(i_j)^shape_j
    as ((ks, c), ...), the sum of c prod p_k over k in ks, by a(a, rest) =
    p_a a(rest) - sum_j a(rest with a added to part j)."""
    if not shape:
        return (((), 1),)
    a, rest = shape[0], shape[1:]
    terms = Counter({tuple(sorted(ks + (a,))): c
                     for ks, c in _augmented_terms(rest)})
    for j in range(len(rest)):
        merged = sorted(rest[:j] + (rest[j] + a,) + rest[j + 1:], reverse=True)
        terms.subtract(dict(_augmented_terms(tuple(merged))))
    return tuple((ks, c) for ks, c in terms.items() if c)


class _ShapeKernel:
    """``shape_charpoly`` of one p for any number of shapes, from one list of
    power sums, extended in place when a shape needs more of them."""

    def __init__(self, p):
        _require_monic(p)
        a = p.coeffs
        rev = len(a) > 2 and a[0] in (1, -1) and abs(a[1]) < abs(a[-2])
        self.reverse, self.p = rev, (_unit_reversal(p) if rev else p)
        self.power_sums = [0]

    def __call__(self, shape):
        n = self.p.degree
        size = shape_degree(n, shape)
        if not size:
            return IntPoly.one()
        s = _power_sums(self.p, size * sum(shape), self.power_sums)
        terms, den = _augmented_terms(tuple(shape)), perm(n, len(shape))
        sums = [0] + [sum(c * prod(s[k * m] for k in ks) for ks, c in terms)
                      // (den // size) for m in range(1, size + 1)]
        r = IntPoly(_monic_from_power_sums(sums, size))
        return _unit_reversal(r) if self.reverse else r


def shape_charpoly(p, shape):
    """R_shape, whose roots are lambda^alpha over the contents alpha of shape.

    lambda are the roots of monic p = charpoly(W) and alpha the distinct
    rearrangements of ``shape`` padded to length deg p.  Power sum n is
    m_shape(lambda^n): the augmented monomial in p_k(lambda^n) = s_(kn)
    over prod mult! (Macdonald, ch. I).  A unimodular W whose reciprocal
    roots look smaller (|a_1| < |a_(g-1)|) goes through W^-1.
    """
    return _ShapeKernel(p)(shape)


def kfold_product_spectrum(p, i):
    """Roots are all products over ordered i-tuples of roots of monic p.

    An i-tuple whose exponent vector is a rearrangement of the partition
    pi of i gives one root of R_pi (``shape_charpoly``), and i! / prod pi_j!
    tuples share each vector, so this is the product of R_pi to that power.
    """
    return prod((f ** e for f, e in _kfold_factors(p, i)), start=IntPoly.one())


def kfold_value_at_one(p, i):
    """kfold_product_spectrum(p, i)(1), the product of all 1 - a_1 ... a_i,
    read off each factor R_pi at 1 with no polynomial product."""
    return prod(f(1) ** e for f, e in _kfold_factors(p, i))


def _kfold_factors(p, i):
    """[(R_pi, i! / prod pi_j!)] over the partitions pi of i into at most
    deg p parts, all from one shape kernel."""
    if i < 1:
        raise ValueError("need i >= 1")
    kernel = _ShapeKernel(p)
    return [(kernel(pi), factorial(i) // prod(map(factorial, pi)))
            for pi in partitions(i, p.degree)]


def dominance_root_test(p):
    """Coefficient-dominance test for a single dominant real root.

    For monic p = x^g + a_{g-1} x^{g-1} + ... + a_0 the test is
        |a_{g-1}| > 1 + |a_{g-2}| + ... + |a_1| + |a_0|,
    which by Rouche's theorem forces exactly one (real, simple) root of
    modulus > 1 with every other root strictly inside the unit disk.
    Degenerate inputs (degree < 2, non-monic) report False.
    """
    if p.is_zero or p.degree is None or p.degree < 2 or not p.is_monic:
        return False
    g = p.degree
    lhs = abs(p.coeffs[g - 1])
    rhs = 1 + sum(abs(p.coeffs[i]) for i in range(g - 1))
    return lhs > rhs
