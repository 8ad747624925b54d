"""Exact scalars: rationals and rational functions in the parameter t.

Two coefficient fields are supported, selected by a FieldSpec:

* generic mode: Q(t), elements are reduced fractions of polynomials in t
  with a monic denominator;
* specialized mode: Q, with t fixed to a concrete rational.

All arithmetic is exact.  Values are immutable and hash-free on purpose;
nothing here ever rounds or approximates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FieldModeError(ValueError):
    """Raised when two scalars of different modes meet in one operation."""


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


class Poly:
    """Dense univariate polynomial over Q, coefficients indexed by degree.

    The zero polynomial has degree -1.  Coefficient tuples are always
    trimmed, so equal polynomials compare equal structurally.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def x(cls):
        return cls((_ZERO, _ONE))

    @classmethod
    @lru_cache(maxsize=64)
    def x_power(cls, k):
        return cls((_ZERO,) * k + (_ONE,))

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (_ONE,)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        lc = self.coeffs[-1]
        return Poly(c / lc for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    def scale(self, c):
        c = Fraction(c)
        return Poly(c * a for a in self.coeffs)

    def evaluate(self, q):
        q = Fraction(q)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def to_text(self, var="t"):
        return poly_text(self, var)

    def __repr__(self):
        return f"Poly({self.to_text()!r})"


def poly_divmod(a: Poly, b: Poly):
    """Exact division with remainder; b must be nonzero."""
    if b.is_zero():
        raise ZeroDivisionError("zero divisor")
    rem = list(a.coeffs)
    db, lb = b.degree(), b.leading()
    if len(rem) - 1 < db:
        return Poly(), Poly(rem)
    quo = [_ZERO] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = c / lb
        quo[i - db] = f
        for j, cb in enumerate(b.coeffs):
            rem[i - db + j] -= f * cb
    return Poly(quo), Poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r.monic()
    return a.monic()


def poly_text(p: Poly, var="t"):
    if p.is_zero():
        return "0"
    parts = []
    for d in range(p.degree(), -1, -1):
        c = p.coeffs[d]
        if not c:
            continue
        if d == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            head = "" if mag == 1 else str(mag)
            body = head + (var if d == 1 else f"{var}^{d}")
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


def parse_poly(text, var="t"):
    """Parse polynomial text like 'x^2-x-1' or '3/2t^2+1'."""
    import re

    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    if s == "0":
        return Poly()
    term_re = re.compile(
        r"([+-]?)((?:\d+(?:/\d+)?)?)(?:(%s)(?:\^(\d+))?)?" % re.escape(var)
    )
    coeffs = {}
    pos = 0
    while pos < len(s):
        m = term_re.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial at position {pos}: {text!r}")
        sign, num, varpart, exp = m.groups()
        if not num and not varpart:
            raise ValueError(f"bad polynomial at position {pos}: {text!r}")
        c = Fraction(num) if num else _ONE
        if sign == "-":
            c = -c
        d = 0
        if varpart:
            d = int(exp) if exp else 1
        coeffs[d] = coeffs.get(d, _ZERO) + c
        pos = m.end()
    out = [_ZERO] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Poly(out)


_P_ZERO = Poly()
_P_ONE = Poly((_ONE,))


class FieldElement:
    """A scalar in Q (kind 'q') or in Q(t) (kind 'rf').

    Rational functions are kept reduced with a monic denominator, so
    structural equality is semantic equality.
    """

    __slots__ = ("kind", "q", "num", "den")

    def __init__(self, kind, q=None, num=None, den=None):
        self.kind = kind
        self.q = q
        self.num = num
        self.den = den

    @classmethod
    def rational(cls, q):
        return cls("q", q=q if isinstance(q, Fraction) else Fraction(q))

    @classmethod
    def ratfunc(cls, num: Poly, den: Poly = _P_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero divisor")
        if num.is_zero():
            return cls("rf", num=_P_ZERO, den=_P_ONE)
        if den.is_one():
            return cls("rf", num=num, den=den)
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
        if not den.is_monic():
            lc = den.leading()
            den = den.monic()
            num = num.scale(1 / lc)
        return cls("rf", num=num, den=den)

    def _check(self, other):
        if self.kind != other.kind:
            raise FieldModeError("field mode mismatch")

    def is_zero(self):
        return self.q == 0 if self.kind == "q" else self.num.is_zero()

    def is_one(self):
        if self.kind == "q":
            return self.q == 1
        return self.num.is_one() and self.den.is_one()

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        if self.kind == "q":
            return self.q == other.q
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        self._check(other)
        if self.kind == "q":
            return FieldElement.rational(self.q + other.q)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return FieldElement.ratfunc(self.num + other.num, self.den)
        return FieldElement.ratfunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        if self.kind == "q":
            return FieldElement.rational(-self.q)
        return FieldElement("rf", num=-self.num, den=self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.kind != other.kind:
            raise FieldModeError("field mode mismatch")
        if self.kind == "q":
            return FieldElement.rational(self.q * other.q)
        if not self.num.coeffs or not other.num.coeffs:
            return FieldElement("rf", num=_P_ZERO, den=_P_ONE)
        if self.is_one():
            return other
        if other.is_one():
            return self
        return FieldElement.ratfunc(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "q":
            return FieldElement.rational(1 / self.q)
        return FieldElement.ratfunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def to_text(self):
        if self.kind == "q":
            return str(self.q)
        if self.den.is_one():
            body = poly_text(self.num)
            nterms = sum(1 for c in self.num.coeffs if c)
            return body if nterms <= 1 else f"({body})"
        return f"({poly_text(self.num)})/({poly_text(self.den)})"

    def __repr__(self):
        return f"FieldElement({self.to_text()!r})"


def specialize(fe: FieldElement, q) -> FieldElement:
    """Evaluate a rational-function scalar at t = q (exactly)."""
    if fe.kind == "q":
        return fe
    q = Fraction(q)
    dv = fe.den.evaluate(q)
    if dv == 0:
        raise PoleError(f"pole at t = {q}")
    return FieldElement.rational(fe.num.evaluate(q) / dv)


def parse_field_element(text, field: "FieldSpec") -> FieldElement:
    """Parse '5', '-1/2', 't', '(t^2-1)/(t)' in the given field."""
    s = text.strip().replace(" ", "")
    if "/" in s and "(" in s:
        ln, _, ld = s.partition(")/(")
        num = parse_poly(ln.lstrip("("), "t")
        den = parse_poly(ld.rstrip(")"), "t")
        fe = FieldElement.ratfunc(num, den)
    elif "t" in s:
        fe = FieldElement.ratfunc(parse_poly(s.strip("()"), "t"))
    else:
        return field.rational(Fraction(s))
    if field.mode == "specialized":
        return specialize(fe, field.t_value)
    return fe


@dataclass(frozen=True)
class FieldSpec:
    """Chooses the working field: generic Q(t), or Q with t specialized.

    In generic mode every scalar is a rational function; in specialized
    mode every scalar is a plain rational and t is a fixed value.
    """

    mode: str
    t_value: Fraction | None = None

    def __post_init__(self):
        if self.mode not in ("generic", "specialized"):
            raise ValueError(f"unknown field mode {self.mode!r}")
        if self.mode == "specialized" and self.t_value is None:
            raise ValueError("specialized mode needs a t value")
        if self.mode == "generic" and self.t_value is not None:
            raise ValueError("generic mode fixes no t value")

    @classmethod
    def generic(cls):
        return cls("generic")

    @classmethod
    def at(cls, q):
        return cls("specialized", Fraction(q))

    def is_generic(self):
        return self.mode == "generic"

    def zero(self):
        if self.mode == "specialized":
            return FieldElement.rational(_ZERO)
        return FieldElement("rf", num=_P_ZERO, den=_P_ONE)

    def one(self):
        if self.mode == "specialized":
            return FieldElement.rational(_ONE)
        return FieldElement("rf", num=_P_ONE, den=_P_ONE)

    def rational(self, q):
        q = q if isinstance(q, Fraction) else Fraction(q)
        if self.mode == "specialized":
            return FieldElement.rational(q)
        return FieldElement("rf", num=Poly.const(q), den=_P_ONE)

    def t(self):
        if self.mode == "specialized":
            return FieldElement.rational(self.t_value)
        return FieldElement("rf", num=Poly.x(), den=_P_ONE)

    def t_power(self, k: int):
        if k == 0:
            return self.one()
        if self.mode == "specialized":
            return FieldElement.rational(self.t_value**k)
        return FieldElement("rf", num=Poly.x_power(k), den=_P_ONE)

    def t_is_zero(self):
        return self.mode == "specialized" and self.t_value == 0

    def require_nonzero_t(self, what):
        if self.t_is_zero():
            raise ZeroDivisionError(f"{what} requires t != 0")

    def describe(self):
        return "generic" if self.mode == "generic" else f"t={self.t_value}"
