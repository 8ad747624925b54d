"""Exact scalars: rationals and rational functions in the parameter t.

Two coefficient fields are supported, selected by a FieldSpec:

* generic mode: Q(t), elements are reduced fractions of polynomials in t
  with a monic denominator;
* specialized mode: Q, with t fixed to a concrete rational.

Both fields keep a scalar as num over den: coprime ints with den > 0 at a
rational t (`FieldElement.q` is a read-only Fraction view), Polys over
Q(t).  A Poly is integer numerators over one shared denominator, the
layout of FLINT's fmpq_poly, so both fields compute on Python ints with
one gcd per result, not one per coefficient.  A sum of products of
polynomials over Q(t), as compose_sum and the Karoubi sandwich form them,
is accumulated on one int coefficient list over one int denominator, and
the gcd with a linear polynomial is a test of its rational root.

All arithmetic is exact.  Values are immutable and kept in a canonical
form, so equal values compare equal structurally and hash alike, by
num and den; nothing here ever rounds or approximates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FieldModeError(ValueError):
    """Raised when two scalars of different modes meet in one operation."""


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


class Poly:
    """Dense univariate polynomial over Q: sum(nums[i] * t^i) / den.

    `nums` is a trimmed tuple of ints (the zero polynomial has none and
    degree -1) and `den` a positive int with gcd(den, *nums) == 1, so equal
    polynomials compare equal structurally.  `coeffs` gives the
    coefficients as Fractions, indexed by degree.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        nums, dens = [], []
        for c in coeffs:
            n, d = _parts(c)
            nums.append(n)
            dens.append(d)
        den = lcm(*dens)
        if den != 1:
            nums = [n * (den // d) for n, d in zip(nums, dens)]
        p = _poly(nums, den)
        self.nums, self.den = p.nums, p.den

    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.nums)

    @classmethod
    def x_power(cls, k):
        return _raw((0,) * k + (1,), 1)

    def degree(self):
        return len(self.nums) - 1

    def is_zero(self):
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def is_one(self):
        return self.nums == (1,) and self.den == 1

    def is_monic(self):
        return bool(self.nums) and self.nums[-1] == self.den

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other):
        a, b = self.nums, other.nums
        da, db = self.den, other.den
        if da != db:
            g = gcd(da, db)
            a = [n * (db // g) for n in a]
            b = [n * (da // g) for n in b]
            da = da // g * db
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, n in enumerate(b):
            out[i] += n
        return _poly(out, da)

    def __neg__(self):
        return _raw(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.nums, other.nums
        if not a or not b:
            return _P_ZERO
        if a == (self.den,):  # self is 1
            return other
        if b == (other.den,):
            return self
        if len(a) == 1 and len(b) == 1:
            n, d = a[0] * b[0], self.den * other.den
            g = gcd(n, d)
            return _raw((n // g,), d // g)
        out = [0] * (len(a) + len(b) - 1)
        for i, na in enumerate(a):
            if na:
                for j, nb in enumerate(b):
                    out[i + j] += na * nb
        return _poly(out, self.den * other.den)

    def _at(self, p, r):
        """(a, b) with self(p/r) = a/b, for ints p and r > 0; b > 0."""
        acc, rk = 0, 1
        for n in reversed(self.nums):
            acc = acc * p + n * rk
            rk *= r
        # acc = sum nums[i] p^i r^(deg-i), and rk = r^(deg+1)
        return acc * r, rk * self.den

    def to_text(self, var="t"):
        return poly_text(self, var)

    def __repr__(self):
        return f"Poly({self.to_text()!r})"


_new = object.__new__


def _raw(nums, den):
    """The Poly nums/den, for nums and den already in canonical form."""
    p = _new(Poly)
    p.nums = nums
    p.den = den
    return p


def _poly(nums, den):
    """The Poly nums/den in canonical form, from a list of ints and a nonzero int."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _P_ZERO
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return _raw(tuple(nums), den)


def _primitive(nums):
    """nums divided by its content, with a positive leading coefficient."""
    if not nums:
        return nums
    g = gcd(*nums)
    if nums[-1] < 0:
        g = -g
    return nums if g == 1 else [n // g for n in nums]


def _long_division(rem, divisor):
    """Divide the int list rem by divisor in place and return the quotient.

    Every leading coefficient met must be a multiple of divisor's, so that
    the quotient has int coefficients; rem[:deg divisor] is left holding
    the remainder.
    """
    m = len(divisor) - 1
    lead = divisor[-1]
    quo = [0] * (len(rem) - m)
    for i in range(len(rem) - 1, m - 1, -1):
        c = rem[i]
        if c:
            f = c // lead
            quo[i - m] = f
            for j in range(m):
                rem[i - m + j] -= f * divisor[j]
    return quo


def _pseudo_divmod(a, b):
    """(q, r, s) with s * a = q * b + r in Z[t], for int sequences a and b
    with deg a >= deg b: s = lc(b)^(deg a - deg b + 1), and r is trimmed,
    of degree below deg b."""
    s = b[-1] ** (len(a) - len(b) + 1)
    rem = [n * s for n in a]
    quo = _long_division(rem, b)
    del rem[len(b) - 1 :]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem, s


def poly_divmod(a: Poly, b: Poly):
    """Exact division with remainder over Q; b must be nonzero."""
    if b.is_zero():
        raise ZeroDivisionError("zero divisor")
    if len(a.nums) < len(b.nums):
        return _P_ZERO, a
    quo, rem, s = _pseudo_divmod(a.nums, b.nums)
    den = a.den * s
    return _poly([n * b.den for n in quo], den), _poly(rem, den)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd: by a root test when an operand is linear, else by the
    primitive Euclidean algorithm over Z."""
    if len(b.nums) == 2:
        a, b = b, a
    if len(a.nums) == 2:
        # the primitive c1*t + c0 has c1 > 0 and divides b iff b(-c0/c1) = 0
        c0, c1 = _primitive(a.nums)
        return _P_ONE if b._at(-c0, c1)[0] else _raw((c0, c1), c1)
    x, y = _primitive(a.nums), _primitive(b.nums)
    while y:
        rem = _pseudo_divmod(x, y)[1] if len(x) >= len(y) else x
        x, y = y, _primitive(rem)
    # x is primitive, so x / lc(x) needs no further reduction
    return _raw(tuple(x), x[-1]) if x else _P_ZERO


def poly_text(p: Poly, var="t"):
    if p.is_zero():
        return "0"
    parts = []
    for d in range(p.degree(), -1, -1):
        n = p.nums[d]
        if not n:
            continue
        mag = str(abs(Fraction(n, p.den)))
        if d == 0:
            body = mag
        else:
            head = "" if mag == "1" else mag
            body = head + (var if d == 1 else f"{var}^{d}")
        if not parts:
            parts.append(("-" if n < 0 else "") + body)
        else:
            parts.append(("-" if n < 0 else "+") + body)
    return "".join(parts)


def _parts(q):
    """The numerator and denominator of an int or a Fraction, or of Fraction(q)."""
    return (q if isinstance(q, (int, Fraction)) else Fraction(q)).as_integer_ratio()


def parse_rational(text):
    """A rational from text like '5' or '-1/2'."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_poly(text, var="t"):
    """Parse polynomial text like 'x^2-x-1' or '3/2t^2+1'."""
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
        c = parse_rational(num) if num else _ONE
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


_P_ZERO = _raw((), 1)
_P_ONE = _raw((1,), 1)


class FieldElement:
    """A scalar num/den in Q (kind 'q') or in Q(t) (kind 'rf').

    In Q, num and den are coprime ints with den > 0; in Q(t) they are
    Polys, reduced, with den monic.  Either form is canonical, so
    structural equality is semantic equality, and the hash is that of
    (num, den).  Comparing scalars of the two fields raises FieldModeError.
    """

    __slots__ = ("kind", "num", "den")

    def __init__(self, kind, num, den):
        self.kind = kind
        self.num = num
        self.den = den

    @property
    def q(self):
        """The value of a Q scalar as a Fraction; None over Q(t)."""
        return Fraction(self.num, self.den) if self.kind == "q" else None

    @classmethod
    def ratfunc(cls, num: Poly, den: Poly = _P_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero divisor")
        if num.is_zero():
            return _RF_ZERO
        if den.is_one():
            return cls("rf", num, den)
        top, bottom = num.nums, den.nums
        # a constant shares no factor of positive degree
        g = poly_gcd(num, den) if len(top) > 1 and len(bottom) > 1 else _P_ONE
        if len(g.nums) > 1:
            # g is monic, so g.nums is primitive and, by Gauss's lemma,
            # divides both exactly in Z[t]
            top = _long_division(list(top), g.nums)
            bottom = _long_division(list(bottom), g.nums)
        # num/den = (top/num.den) / (bottom/den.den); divide both by lc(bottom)
        lead = bottom[-1]
        return cls(
            "rf",
            _poly([n * den.den for n in top], num.den * lead),
            _poly(list(bottom), lead),
        )

    def _check(self, other):
        if self.kind != other.kind:
            raise FieldModeError("field mode mismatch")

    def is_zero(self):
        return not self.num

    def is_one(self):
        if self.kind == "q":
            return self.num == 1 and self.den == 1
        # a monic denominator of degree 0 is 1
        return self.num.nums == (1,) and self.num.den == 1 and len(self.den.nums) == 1

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        self._check(other)
        if self.kind == "q":
            return _rat(self.num * other.den + other.num * self.den, self.den * other.den)
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return FieldElement.ratfunc(self.num + other.num, self.den)
        return FieldElement.ratfunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return FieldElement(self.kind, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.kind != other.kind:
            raise FieldModeError("field mode mismatch")
        if self.kind == "q":
            return _rat(self.num * other.num, self.den * other.den)
        a, b = self.num, other.num
        if not a.nums or not b.nums:
            return _RF_ZERO
        # a monic denominator of degree 0 is 1
        if len(self.den.nums) == 1 and len(other.den.nums) == 1:
            p = a * b  # a factor 1 passes through Poly.__mul__ as the other factor
            return self if p is a else other if p is b else FieldElement("rf", p, _P_ONE)
        if self.is_one():
            return other
        if other.is_one():
            return self
        num, den, reduced = _rf_product(self, other, 0)
        return FieldElement("rf", num, den) if reduced else FieldElement.ratfunc(num, den)

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "q":
            n, d = self.num, self.den
            return FieldElement("q", d, n) if n > 0 else FieldElement("q", -d, -n)
        return FieldElement.ratfunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def to_text(self):
        if self.kind == "q":
            # as str(Fraction) prints it
            return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        if self.den.is_one():
            body = poly_text(self.num)
            nterms = sum(1 for n in self.num.nums if n)
            return body if nterms <= 1 else f"({body})"
        return f"({poly_text(self.num)})/({poly_text(self.den)})"

    def __repr__(self):
        return f"FieldElement({self.to_text()!r})"


def _rat(n, d):
    """The Q scalar n/d in lowest terms, for ints n and d > 0."""
    g = gcd(n, d)
    return FieldElement("q", n // g, d // g)


# The zero and one of each field, shared: scalars are never mutated.
_Q_ZERO = FieldElement("q", 0, 1)
_Q_ONE = FieldElement("q", 1, 1)
_RF_ZERO = FieldElement("rf", _P_ZERO, _P_ONE)
_RF_ONE = FieldElement("rf", _P_ONE, _P_ONE)


def _rf_product(a, b, k):
    """(num, den, reduced) with num/den = a*b*t^k for Q(t) scalars a and b,
    den monic, and reduced true when num/den is known to be in lowest terms
    without a gcd: a constant times a reduced fraction, or a product of two
    polynomials, stays reduced, and so does its product with t^k when t
    does not divide den.  a times the field's shared one is a itself,
    with no Poly product, as for a unit coefficient in compose_sum or a
    coefficient of R in karoubi._sandwich's inner sums."""
    if a.kind != "rf" or b.kind != "rf":
        raise FieldModeError("field mode mismatch")
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if b is _RF_ONE:
        num, den, reduced = an, ad, True
    # a monic denominator of degree 0 is 1
    elif len(ad.nums) == 1:
        num, den = an * bn, bd
        reduced = len(an.nums) == 1 or len(bd.nums) == 1
    elif len(bd.nums) == 1:
        num, den = an * bn, ad
        reduced = len(bn.nums) == 1
    else:
        num, den, reduced = an * bn, ad * bd, False
    if k and num.nums:
        num = _raw((0,) * k + num.nums, num.den)
        reduced = reduced and den.nums[0] != 0
    return num, den, reduced


def sub_product(cur, a, b):
    """cur - a*b for scalars a and b of one field, normalised once; cur
    None stands for zero.

    Over Q(t) the product's numerator and denominator from _rf_product are
    put over one denominator with cur's, and one ratfunc call reduces the
    result; none is needed for -a*b when _rf_product knows the product
    reduced, or when both terms are polynomials.  At a rational t the
    result is formed on the ints and reduced by one gcd.  A scalar of the
    other field raises FieldModeError.
    """
    if a.kind == "q":
        if b.kind != "q" or (cur is not None and cur.kind != "q"):
            raise FieldModeError("field mode mismatch")
        n, d = a.num * b.num, a.den * b.den
        if cur is None:
            return _rat(-n, d)
        return _rat(cur.num * d - n * cur.den, cur.den * d)
    num, den, reduced = _rf_product(a, b, 0)
    if cur is None:
        if reduced and num.nums:
            return FieldElement("rf", -num, den)
        return FieldElement.ratfunc(-num, den)
    if cur.kind != "rf":
        raise FieldModeError("field mode mismatch")
    if cur.den == den:
        if len(den.nums) == 1:  # both are polynomials
            return FieldElement("rf", cur.num - num, den)
        return FieldElement.ratfunc(cur.num - num, den)
    return FieldElement.ratfunc(cur.num * den - num * cur.den, cur.den * den)


def _poly_products(triples):
    """The Poly sum of a.num * b.num * t^k over (a, b, k) triples of Q(t)
    polynomials, added on one int list over one int denominator and put in
    canonical form once, by _poly."""
    acc, den = [], 1
    for a, b, k in triples:
        x, y = a.num, b.num
        d = x.den * y.den
        if den % d:  # raise den to lcm(den, d)
            f = d // gcd(den, d)
            acc = [n * f for n in acc]
            den *= f
        s = den // d
        ys = y.nums
        top = len(x.nums) + len(ys) - 1 + k
        if len(acc) < top:
            acc += [0] * (top - len(acc))
        for i, n in enumerate(x.nums, k):
            if n:
                n *= s
                for j, c in enumerate(ys, i):
                    acc[j] += n * c
    return _poly(acc, den)


def sum_products(sums, field: "FieldSpec"):
    """For each key of sums, the sum of a*b*t^k over its list of (a, b, k)
    triples of nonzero scalars of the field, normalised once; a key whose
    sum is zero is left out of the returned dict.

    Over Q(t) a key whose products are all of two polynomials is summed on
    one int coefficient list over one int denominator and normalised once,
    with no gcd of polynomials.  The products of any other key are grouped
    by denominator and their numerators added, the groups are put over one
    denominator, and one ratfunc call reduces the result.  A lone product
    skips that call when the reduced-product rule of _rf_product knows it
    to be in lowest terms; without a power of t it is a * b, which also
    passes a factor 1 through.
    At a rational t the products accumulate on the ints and each sum is
    reduced by one gcd.  A scalar of the other field raises FieldModeError.
    """
    out = {}
    if field.t_value is not None:
        tn, td = field.t_value.numerator, field.t_value.denominator
        for key, triples in sums.items():
            n, d = 0, 1
            for a, b, k in triples:
                if a.kind != "q" or b.kind != "q":
                    raise FieldModeError("field mode mismatch")
                p, q = a.num * b.num, a.den * b.den
                if k:
                    p *= tn**k
                    q *= td**k
                if q == d:
                    n += p
                else:
                    n, d = n * q + p * d, d * q
            if n:
                out[key] = _rat(n, d)
        return out
    for key, triples in sums.items():
        a, b, k = triples[0]
        if len(triples) == 1 and not k and a.kind == "rf":
            out[key] = a * b
            continue
        # a monic denominator of degree 0 is 1
        if all(
            a.kind == b.kind == "rf" and len(a.den.nums) == len(b.den.nums) == 1
            for a, b, _ in triples
        ):
            num, den, reduced = _poly_products(triples), _P_ONE, True
            if not num.nums:
                continue
        elif len(triples) == 1:
            num, den, reduced = _rf_product(a, b, k)
        else:
            groups = {}
            for a, b, k in triples:
                num, den, _ = _rf_product(a, b, k)
                cur = groups.get(den)
                groups[den] = num if cur is None else cur + num
            (den, num), *rest = groups.items()
            for d, n in rest:
                num, den = num * d + n * den, den * d
            if not num.nums:
                continue
            reduced = False  # some product's denominator, hence den, has positive degree
        out[key] = FieldElement("rf", num, den) if reduced else FieldElement.ratfunc(num, den)
    return out


def specialize(fe: FieldElement, q) -> FieldElement:
    """Evaluate a rational-function scalar at t = q (exactly)."""
    if fe.kind == "q":
        return fe
    p, r = _parts(q)
    (nn, nd), (dn, dd) = fe.num._at(p, r), fe.den._at(p, r)
    if not dn:
        raise PoleError(f"pole at t = {Fraction(p, r)}")
    # (nn/nd) / (dn/dd), the sign of dn moved to the numerator
    return _rat(nn * dd, nd * dn) if dn > 0 else _rat(-nn * dd, -nd * dn)


def parse_field_element(text, field: "FieldSpec") -> FieldElement:
    """Parse '5', '-1/2', 't', '(1/2t+1)', '(t^2-1)/(t)' in the given field."""
    s = text.strip().replace(" ", "")
    if "t" not in s:
        return field.rational(parse_rational(s))
    den = _P_ONE
    if s.startswith("(") and s.endswith(")"):
        top, sep, bottom = s[1:-1].partition(")/(")
        num = parse_poly(top, "t")
        if sep:
            den = parse_poly(bottom, "t")
            if den.is_zero():
                raise ValueError(f"zero denominator in {text!r}")
    else:
        num = parse_poly(s, "t")
    fe = FieldElement.ratfunc(num, den)
    if field.t_value is not None:
        return specialize(fe, field.t_value)
    return fe


@dataclass(frozen=True)
class FieldSpec:
    """Chooses the working field by its t value: None for generic Q(t), or
    Q with t specialized to a rational.

    Over Q(t) every scalar is a rational function; at a value of t every
    scalar is a plain rational.
    """

    t_value: Fraction | None = None

    @classmethod
    def generic(cls):
        """The one shared Q(t) field."""
        return _GENERIC

    @classmethod
    def at(cls, q):
        return cls(Fraction(q))

    def is_generic(self):
        return self.t_value is None

    def zero(self):
        return _RF_ZERO if self.t_value is None else _Q_ZERO

    def one(self):
        return _RF_ONE if self.t_value is None else _Q_ONE

    def rational(self, q):
        n, d = _parts(q)
        if self.t_value is not None:
            return FieldElement("q", n, d)
        if not n:
            return _RF_ZERO
        return FieldElement("rf", _raw((n,), d), _P_ONE)

    def t(self):
        return self.t_power(1)

    def t_power(self, k: int):
        """t^k for an int k; a negative k needs t != 0."""
        if k == 0:
            return self.one()
        if k < 0:
            return self.t_power(-k).inv()
        if self.t_value is not None:
            t = self.t_value
            return FieldElement("q", t.numerator**k, t.denominator**k)
        return FieldElement("rf", Poly.x_power(k), _P_ONE)

    def require_nonzero_t(self, what):
        if self.t_value == 0:
            raise ZeroDivisionError(f"{what} requires t != 0")

    def describe(self):
        return "generic" if self.t_value is None else f"t={self.t_value}"


_GENERIC = FieldSpec()
