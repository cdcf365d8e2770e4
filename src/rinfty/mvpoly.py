"""Sparse multivariate polynomials over Q.

Just enough ring arithmetic for symbolic collection: terms are stored as
{exponent tuple: Fraction} against a fixed variable list.  Division is
only by scalars, which keeps everything exact.
"""

from fractions import Fraction
from math import lcm


class MPoly:
    """Immutable sparse polynomial in a fixed tuple of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        """Wrap ``terms``, {exponent tuple: nonzero Fraction}, as given.

        Only ``constant``, ``variable`` and the ring operations below
        build an MPoly, and each hands over a clean dict.
        """
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(variables, value):
        variables = tuple(variables)
        c = Fraction(value)
        if not c:
            return MPoly(variables, {})
        return MPoly(variables, {(0,) * len(variables): c})

    @staticmethod
    def variable(variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return MPoly(variables, {exps: Fraction(1)})

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError("variable mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.constant(self.vars, other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        return other is not None and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MPoly(self.vars,
                         {e: c * v for e, v in self.terms.items()} if c else {})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return MPoly(self.vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = Fraction(scalar)
        return MPoly(self.vars, {e: v / c for e, v in self.terms.items()})

    def __pow__(self, k):
        result = MPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def uses_variable(self, name):
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

    def denominator_lcm(self):
        return lcm(*(c.denominator for c in self.terms.values())) if self.terms else 1

    # -- substitution / evaluation ----------------------------------------

    def substitute(self, assignment):
        """Substitute values (int/Fraction/MPoly on the same vars) per name."""
        acc = {}
        for exps, coeff in self.terms.items():
            term = MPoly.constant(self.vars, coeff)
            for name, e in zip(self.vars, exps):
                if not e:
                    continue
                val = assignment.get(name)
                if val is None:
                    val = MPoly.variable(self.vars, name)
                elif not isinstance(val, MPoly):
                    val = MPoly.constant(self.vars, val)
                term = term * (val ** e)
            for mono, c in term.terms.items():
                acc[mono] = acc.get(mono, 0) + c
        return MPoly(self.vars, {e: c for e, c in acc.items() if c})

    def evaluate(self, assignment):
        """Fully numeric evaluation to a Fraction."""
        acc = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for name, e in zip(self.vars, exps):
                if e:
                    val *= Fraction(assignment[name]) ** e
            acc += val
        return acc

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.vars, exps) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"
