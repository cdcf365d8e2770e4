"""Sparse multivariate polynomials over Q.

Just enough ring arithmetic for symbolic collection: integer terms
{exponent tuple: int} over one positive denominator, in lowest form, against
a fixed variable list.  Division is only by scalars, which keeps it exact.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add


class MPoly:
    """Immutable sparse polynomial in a fixed tuple of variables."""

    __slots__ = ("vars", "terms", "denominator")

    def __init__(self, variables, terms, denominator=1):
        """``terms``, {exponent tuple: nonzero int}, over ``denominator`` > 0.

        Only ``constant``, ``variable`` and the ring operations below
        build an MPoly, and each hands over a clean dict; the common
        factor of the terms and the denominator is divided out here.
        """
        if denominator != 1:
            g = gcd(denominator, *terms.values())
            if g != 1:
                terms = {e: c // g for e, c in terms.items()}
                denominator //= g
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(variables, value):
        variables = tuple(variables)
        c = Fraction(value)
        return MPoly(variables, {(0,) * len(variables): c.numerator} if c
                     else {}, c.denominator)

    @staticmethod
    def variable(variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return MPoly(variables, {exps: 1})

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
        return (other is not None and self.terms == other.terms
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items()),
                     self.denominator))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = lcm(self.denominator, other.denominator)
        fa, fb = den // self.denominator, den // other.denominator
        out = {e: fa * c for e, c in self.terms.items()}
        for e, c in other.terms.items():
            v = out.get(e, 0) + fb * c
            if v:
                out[e] = v
            else:
                del out[e]
        return MPoly(self.vars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()},
                     self.denominator)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return MPoly(self.vars, {e: n * v for e, v in self.terms.items()}
                         if n else {}, self.denominator * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return MPoly(self.vars, {e: c for e, c in out.items() if c},
                     self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(scalar))

    def __floordiv__(self, k):
        """Division of the integer terms by an int k that divides them."""
        return MPoly(self.vars, {e: c // k for e, c in self.terms.items()},
                     self.denominator)

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

    @property
    def numerator(self):
        return MPoly(self.vars, self.terms)

    def constant_term(self):
        return Fraction(self.terms.get((0,) * len(self.vars), 0),
                        self.denominator)

    def uses_variable(self, name):
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

    def denominator_lcm(self):
        return self.denominator  # terms in lowest form: the lcm of them all

    # -- substitution / evaluation ----------------------------------------

    def substitute(self, assignment):
        """Substitute values (int/Fraction/MPoly on the same vars) per name."""
        acc = MPoly(self.vars, {})
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
            acc = acc + term
        return acc / self.denominator

    def evaluate(self, assignment):
        """Fully numeric evaluation to a Fraction."""
        acc = 0
        for exps, coeff in self.terms.items():
            val = coeff
            for name, e in zip(self.vars, exps):
                if e:
                    val *= assignment[name] ** e
            acc += val
        return Fraction(acc) / self.denominator

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = Fraction(self.terms[exps], self.denominator)
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.vars, exps) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"
