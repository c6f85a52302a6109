"""Exact scalars: complex rationals extended by commuting formal symbols.

Values live in the fraction field Q(i)(s1, ..., sn).  A Scalar stores a
numerator and a denominator, each a sparse polynomial mapping packed
exponent keys to Gaussian-integer coefficients, held as (re, im) pairs
of Python ints.  All arithmetic is exact.

A key is one non-negative int holding a monomial's exponents, one
64-bit field per symbol, symbol 0 in the most significant field
(Monagan & Pearce, CASC 2007).  A product of monomials is then one int
addition, a power one int multiplication and a shift one subtraction.
Since every field is below 2^64, comparing keys as ints compares their
exponent tuples lexicographically, so the leading term, the sort order
of printing and every canonical choice below are those of the tuples.
SymbolTable._pack and SymbolTable._unpack convert between the two.

A stored exponent may not exceed MAX_SYMBOL_EXPONENT = 2^40 - 1.  The
fields then never carry into each other: a product or a sum of stored
forms stays far below 2^64 in every field until the next
canonicalisation, which checks its stored keys with one OR against the
table's guard mask (the bits of each field above the bound) and raises
ExponentLimitExceeded past it.  The one-term power checks its largest
exponent times |e| before it multiplies, since a product past 2^64
would carry before any check could see it.

Canonical form, re-established by every constructor:

* zero is stored as 0/1,
* the monomial gcd of numerator and denominator is divided out, so the
  smallest exponent of each symbol appearing anywhere is zero,
* a numerator that is a constant multiple of the denominator is
  replaced by that constant over one,
* when at most one symbol is active and both sides have two or more
  terms, numerator and denominator are reduced by their univariate gcd
  (a single-term side is already coprime to the other after the shift),
* a constant denominator is one positive int d, (d, 0), and the integer
  gcd of d and every numerator real and imaginary part is one,
* a non-constant denominator is scaled with the numerator so that all
  coefficients together have Gaussian content one, then rotated by a
  unit so that the lexicographically leading denominator coefficient
  has positive real part and non-negative imaginary part.

With two or more active symbols no polynomial gcd is attempted, so
distinct stored forms can denote equal values; `==` therefore always
compares by cross-multiplication.  Scalars are deliberately unhashable.

Stored forms are nevertheless unique, and printing canonical, for every
value with at most one active symbol and for every value whose
denominator is one term (a constant, a monomial ratio or a Laurent
polynomial), in any number of symbols.  For the latter the value is a
Laurent polynomial L over Q(i): the shift fixes the denominator's
monomial as the one clearing L's negative exponents, content one fixes
its coefficient up to a unit as the generator of the ideal of Gaussian
integers clearing L's coefficients, and the positive-int or quadrant
rule fixes the unit.  Hence any route to such a value stores the same
dicts, and the three direct routes here are byte-identical to
step-by-step arithmetic: any numerator over a one-term denominator is
canonicalised in one step (_canonical_over_term: the shift touches only
the fields the denominator holds, and no constant-multiple test or gcd
applies), a one-term value is powered by scaling its exponents
(_term_power), and a matrix entry whose factors all have one-term
denominators is summed over one common denominator and canonicalised
once (_dot).  _canonical stays the general route, the reference for
the direct ones.

The univariate gcd stays in Z[i][t]: a primitive remainder sequence
(Collins 1967, Brown 1971) takes each pseudo-remainder's primitive part,
so the gcd comes out with content one and its leading coefficient in the
quadrant.  Numerator and denominator are then divided by it exactly: by
Gauss's lemma the quotients have Gaussian-integer coefficients, so no
denominators ever appear.  Each division step visits every degree
between the dividend's and the divisor's, however sparse they are, so a
pair whose degree passes MAX_GCD_DEGREE raises DegreeLimitExceeded
before the gcd starts.  Every coefficient in the layer is an (re, im)
int pair; Fraction appears only where values enter (SymbolTable.scalar).
Printing divides each int by its gcd with the denominator (_ratio_str).

SymbolTable.scalar is the one conversion into the field: every int,
Fraction or Scalar handed to the package passes through it.  Each table
holds one canonical zero and one one, returned for 0 and 1: Scalars are
immutable, and no operation writes into an operand's dicts.

_signed_term is the one term printer: every term of a printed scalar
(its re + i*im coefficient included), minimal polynomial or plane
relation drops 1 and parenthesises a sum by its one rule.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, or_
from typing import Iterable, Optional, Sequence

__all__ = ["PoleError", "Scalar", "SymbolTable", "UnknownSymbol", "sqrt_scalar"]

MAX_SYMBOL_EXPONENT = (1 << 40) - 1  # the largest exponent of one symbol in a stored form
MAX_SYMBOLS = 100  # the most names one table holds: its field masks take 4*n^2 bytes
MAX_GCD_DEGREE = 10000  # the highest degree a one-symbol gcd starts from
_FIELD_BITS = 64
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class UnknownSymbol(Exception):
    """A symbol name that the relevant table does not declare."""


class PoleError(ArithmeticError):
    """Division by an exact zero, or evaluation at a pole."""


class PrintLimitExceeded(Exception):
    """A value has an int longer than the interpreter converts to text."""


class ExponentLimitExceeded(OverflowError):
    """A value needs a symbol exponent beyond MAX_SYMBOL_EXPONENT."""

    def __init__(self, name: str):
        super().__init__(f"exponent of {name} beyond the limit {MAX_SYMBOL_EXPONENT}")


class DegreeLimitExceeded(OverflowError):
    """A one-symbol gcd would start from a degree beyond MAX_GCD_DEGREE."""

    def __init__(self, name: str, degree: int):
        super().__init__(f"quotient of degree {degree} in {name}, beyond the gcd limit "
                         f"{MAX_GCD_DEGREE}")


# an input past a bound above: an input error wherever it is reached, never a failed check
LIMIT_ERRORS = (PrintLimitExceeded, ExponentLimitExceeded, DegreeLimitExceeded)


class SymbolTable:
    """An ordered set of commuting symbol names shared by related scalars.

    Scalars of tables with equal names mix; any other mix raises
    ValueError.
    """

    __slots__ = ("names", "n", "_pos", "_shifts", "_masks", "_guard", "_zero", "_one")

    def __init__(self, names: Iterable[str] = ()):
        names = tuple(names)
        if len(names) > MAX_SYMBOLS:
            raise ValueError(f"{len(names)} symbols, beyond the limit {MAX_SYMBOLS}")
        seen = set()
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"symbol name {name!r} is not an identifier")
            if name == "i":
                raise ValueError("'i' is reserved for the imaginary unit")
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)
        self.names = names
        self.n = len(names)
        self._pos = {name: k for k, name in enumerate(names)}
        # the bit offset and the mask of each symbol's field in a key, symbol 0 highest
        self._shifts = tuple(_FIELD_BITS * (self.n - 1 - k) for k in range(self.n))
        self._masks = tuple(_FIELD_MASK << s for s in self._shifts)
        self._guard = self._pack([_FIELD_MASK ^ MAX_SYMBOL_EXPONENT] * self.n)
        # one zero and one one per table: Scalars are immutable, so all share them
        self._zero = Scalar(self, {}, {0: (1, 0)})
        self._one = Scalar(self, {0: (1, 0)}, {0: (1, 0)})

    def __repr__(self):
        return f"SymbolTable({list(self.names)!r})"

    def _pack(self, exps) -> int:
        """The key of the non-negative exponents exps, one per symbol."""
        return sum(e << s for e, s in zip(exps, self._shifts))

    def _unpack(self, key: int) -> tuple:
        """The exponent tuple of a key, one per symbol."""
        return tuple((key >> s) & _FIELD_MASK for s in self._shifts)

    def _check(self, bits: int) -> None:
        """Raise ExponentLimitExceeded if bits, an OR of keys, passes the bound."""
        if bits & self._guard:
            for name, e in zip(self.names, self._unpack(bits)):
                if e > MAX_SYMBOL_EXPONENT:
                    raise ExponentLimitExceeded(name)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def scalar(self, value) -> "Scalar":
        """value as a Scalar over this table's names.

        An int or a Fraction becomes a constant, 0 and 1 the table's
        shared zero and one, and a Scalar over the same names is returned
        as it is.  A Scalar over other names raises ValueError; any other
        value raises TypeError.
        """
        if type(value) is Scalar and value.table is self:
            return value
        if isinstance(value, Scalar):
            if value.table.names != self.names:
                raise ValueError("scalars belong to different symbol tables")
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            re, d = value, 1
        elif isinstance(value, Fraction):
            re, d = value.numerator, value.denominator
        else:
            raise TypeError(f"cannot make a scalar from a {type(value).__name__}")
        if not re:
            return self._zero
        if re == 1 and d == 1:
            return self._one
        return Scalar(self, {0: (re, 0)}, {0: (d, 0)})

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def i(self) -> "Scalar":
        return Scalar(self, {0: (0, 1)}, {0: (1, 0)})

    def symbol(self, name: str) -> "Scalar":
        return Scalar(self, {1 << self._shifts[self.index(name)]: (1, 0)}, {0: (1, 0)})

    def symbols(self, *names: str):
        return tuple(self.symbol(name) for name in names)


# -- sparse polynomials: {packed key: (re, im) int pair}, no zero values --


def _padd(a, b):
    out = dict(a)
    for e, (br, bi) in b.items():
        s = out.get(e)
        if s is None:
            out[e] = (br, bi)
        elif s[0] + br or s[1] + bi:
            out[e] = (s[0] + br, s[1] + bi)
        else:
            del out[e]
    return out


def _pneg(a):
    return {e: (-r, -i) for e, (r, i) in a.items()}


def _pmul(a, b, out=None):
    # a*b, added into out when given
    out = {} if out is None else out
    get = out.get
    for ea, (ar, ai) in a.items():
        for eb, (br, bi) in b.items():
            e = ea + eb
            r = ar * br - ai * bi
            i = ar * bi + ai * br
            s = get(e)
            if s is None:
                out[e] = (r, i)
            elif s[0] + r or s[1] + i:
                out[e] = (s[0] + r, s[1] + i)
            else:
                del out[e]
    return out


def _pconj(a):
    return {e: (r, -i) for e, (r, i) in a.items()}


def _pscale(a, h, m):
    # every coefficient times the Gaussian integer h, divided exactly by the int m
    hr, hi = h
    return {e: ((r * hr - i * hi) // m, (r * hi + i * hr) // m) for e, (r, i) in a.items()}


# -- Gaussian-integer gcd on plain (re, im) int pairs --


def _round_div(p: int, q: int) -> int:
    # nearest integer to p/q for q > 0
    return (2 * p + q) // (2 * q)


def _gint_gcd(a, b):
    while b != (0, 0):
        br, bi = b
        n = br * br + bi * bi
        ar, ai = a
        qr = _round_div(ar * br + ai * bi, n)
        qi = _round_div(ai * br - ar * bi, n)
        a, b = b, (ar - (qr * br - qi * bi), ai - (qr * bi + qi * br))
    return a


def _quad_unit(z):
    # the unit u with u*z in the canonical quadrant: re > 0, im >= 0
    r, i = z
    if r > 0 and i >= 0:
        return (1, 0)
    if i > 0:
        return (0, -1)
    if r < 0:
        return (-1, 0)
    return (0, 1)


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gpow(z, e: int):
    # z ** e for e >= 0 by square and multiply
    out = (1, 0)
    while e:
        if e & 1:
            out = _gmul(out, z)
        e >>= 1
        if e:
            z = _gmul(z, z)
    return out


def _content(coeffs):
    """The Gaussian gcd of nonzero int pairs, up to a unit.

    The integer gcd k of every real and imaginary part comes out first;
    the Gaussian Euclid then runs only on the quotients, and only when
    their norms share an odd factor, since the content's norm divides each.
    """
    k = math.gcd(*chain.from_iterable(coeffs))
    if k != 1:
        coeffs = [(r // k, i // k) for r, i in coeffs]
    n = math.gcd(*(r * r + i * i for r, i in coeffs))
    if n == 1:
        return (k, 0)
    if not n & (n - 1):
        # every norm is even, so 1 + i divides every quotient, and nothing
        # more does: 2 = -i*(1 + i)^2 does not, and any other Gaussian
        # prime has an odd norm
        return (k, k)
    g = reduce(_gint_gcd, coeffs)
    return (g[0] * k, g[1] * k)


def _normaliser(g, lead):
    """h and m such that c -> c*h/m divides by the content g and rotates
    lead/g into the canonical quadrant; the division by m is exact."""
    h = (g[0], -g[1])
    return _gmul(h, _quad_unit(_gmul(lead, h))), g[0] * g[0] + g[1] * g[1]


# -- univariate polynomials over Z[i]: {degree: (re, im)}, no zero values --


def _primitive(p):
    # p divided by its content, the leading coefficient rotated into the
    # quadrant, so that a unit leading coefficient becomes exactly 1
    h, m = _normaliser(_content(p.values()), p[max(p)])
    return p if h == (1, 0) and m == 1 else _pscale(p, h, m)


def _divide(a, b):
    """The quotient and remainder of a by b, for a whose leading
    coefficient at every step is a multiple of b's."""
    db = max(b)
    lc = b[db]
    m = lc[0] * lc[0] + lc[1] * lc[1]
    a = dict(a)
    q = {}
    for da in range(max(a), db - 1, -1):
        c = a.pop(da, None)
        if c is None:
            continue
        if lc != (1, 0):
            c = _gmul(c, (lc[0], -lc[1]))
            assert not (c[0] % m or c[1] % m), "polynomial division was not exact"
            c = (c[0] // m, c[1] // m)
        q[da - db] = c
        # a -= c * t^(da - db) * b below the cancelled leading term
        for d, x in b.items():
            if d != db:
                e = d + da - db
                r, i = _gmul(c, x)
                s = a.get(e)
                if s is None:
                    a[e] = (-r, -i)
                elif s[0] != r or s[1] != i:
                    a[e] = (s[0] - r, s[1] - i)
                else:
                    del a[e]
    return q, a


def _ugcd(a, b):
    """The primitive gcd of two nonzero polynomials, by the primitive
    remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if max(a) < max(b):
        a, b = b, a
    while max(b):
        lc = b[max(b)]
        if lc != (1, 0):
            # the pseudo-remainder: lc^(deg a - deg b + 1)*a divides step by step
            a = _pscale(a, _gpow(lc, max(a) - max(b) + 1), 1)
        r = _divide(a, b)[1]
        if not r:
            return b
        a, b = b, _primitive(r)
    return {0: (1, 0)}


def _fields(masks, keys, pick) -> int:
    """The key whose every field is pick (min or max) of that field over keys."""
    out = 0
    for m in masks:
        out |= pick(map(m.__and__, keys))
    return out


def _canonical(table, num, den):
    if not den:
        raise PoleError("denominator is identically zero")
    if not num:
        return {}, {0: (1, 0)}

    if 0 not in num and 0 not in den:
        # a zero key already makes every field's minimum zero
        lo = _fields(table._masks, [*num, *den], min)
        if lo:
            num = {e - lo: c for e, c in num.items()}
            den = {e - lo: c for e, c in den.items()}
    # every field's minimum is now zero, so a field of bits is nonzero
    # exactly when its symbol is active
    bits = reduce(or_, chain(num, den))
    table._check(bits)
    if len(den) > 1 and num.keys() == den.keys():
        # num = (nc/dc)*den, a constant, exactly when all cross products agree
        lead = next(iter(den))
        nc, dc = num[lead], den[lead]
        if all(_gmul(num[e], dc) == _gmul(den[e], nc) for e in den):
            num, den = {0: nc}, {0: dc}

    if len(num) > 1 and len(den) > 1:
        active = [s for s in table._shifts if (bits >> s) & _FIELD_MASK]
        if len(active) == 1:
            # every other field is zero, so a key is its degree shifted by s
            s, = active
            a = {e >> s: c for e, c in num.items()}
            b = {e >> s: c for e, c in den.items()}
            degree = max(max(a), max(b))
            if degree > MAX_GCD_DEGREE:
                # a division step visits every degree down from the top one
                raise DegreeLimitExceeded(table.names[table._shifts.index(s)], degree)
            g = _ugcd(a, b)
            if max(g):
                # exact by Gauss's lemma, g being primitive
                (qa, ra), (qb, rb) = _divide(a, g), _divide(b, g)
                assert not (ra or rb), "polynomial division was not exact"
                num = {d << s: c for d, c in qa.items()}
                den = {d << s: c for d, c in qb.items()}

    if len(den) == 1 and 0 in den:
        return _over_int(num, den[0])
    return _over_content(num, den)


def _canonical_over_term(table, num, den):
    """_canonical for a denominator of one term, in one direct step.

    Only a field the denominator holds can shift: wherever its field is
    zero, that zero is already the minimum.  No constant-multiple test
    or gcd applies over one term, so the shifted value goes straight to
    the integer or content normalisation.  A positive int coefficient
    over a monomial, the common case, has its integer content taken
    first; _over_content runs only when the norms share a factor with
    the int left over.
    """
    (b, d), = den.items()
    if not num:
        return {}, {0: (1, 0)}
    if b:
        lo = 0
        for m in table._masks:
            f = b & m
            if f:
                # the least of this field over b and every numerator key
                for e in num:
                    if e & m < f:
                        f = e & m
                lo |= f
        if lo:
            num = {e - lo: c for e, c in num.items()}
            b -= lo
    table._check(reduce(or_, num, b))
    if not b:
        return _over_int(num, d)
    dr, di = d
    if not di and dr > 0:
        # the integer content k first; then the content is k itself unless
        # dr/k shares a factor with every norm, the case _over_content settles
        k = math.gcd(dr, *chain.from_iterable(num.values()))
        if k != 1:
            num = {e: (r // k, i // k) for e, (r, i) in num.items()}
            dr //= k
        if dr == 1 or math.gcd(dr, *[r * r + i * i for r, i in num.values()]) == 1:
            return num, {b: (dr, 0)}
        d = (dr, 0)
    return _over_content(num, {b: d})


def _over_int(num, d):
    # num over the nonzero Gaussian integer d, as num' over a positive int
    d, di = d
    if di or d < 0:
        # times the conjugate, which leaves a positive int below
        num = _pscale(num, (d, -di), 1)
        d = d * d + di * di
    if d != 1:
        g = math.gcd(d, *chain.from_iterable(num.values()))
        if g != 1:
            num = _pscale(num, (1, 0), g)
            d //= g
    return num, {0: (d, 0)}


def _over_content(num, den):
    # both sides divided by their content, the leading denominator
    # coefficient rotated into the quadrant
    h, m = _normaliser(_content((*num.values(), *den.values())), den[max(den)])
    if h != (1, 0) or m != 1:
        num = _pscale(num, h, m)
        den = _pscale(den, h, m)
    return num, den


def _lift(table: SymbolTable, value) -> Optional["Scalar"]:
    # None tells the arithmetic dunders to return NotImplemented, so
    # that Scalar * SquareMatrix reaches SquareMatrix.__rmul__
    try:
        return table.scalar(value)
    except TypeError:
        return None


class Scalar:
    """One exact value of the symbolic field Q(i)(s1, ..., sn)."""

    __slots__ = ("table", "num", "den")

    def __init__(self, table: SymbolTable, num: dict, den: dict):
        self.table = table
        if len(den) == 1:
            self.num, self.den = _canonical_over_term(table, num, den)
        else:
            self.num, self.den = _canonical(table, num, den)

    # -- predicates --

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_real(self) -> bool:
        """True when the value equals its conjugate (symbols count as real)."""
        return self == self.conjugate()

    # -- arithmetic --

    def __add__(self, other):
        o = _lift(self.table, other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return Scalar(self.table, _padd(self.num, o.num), self.den)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return Scalar(self.table, num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift(self.table, other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return Scalar(self.table, _padd(self.num, _pneg(o.num)), self.den)
        num = _padd(_pmul(self.num, o.den), _pneg(_pmul(o.num, self.den)))
        return Scalar(self.table, num, _pmul(self.den, o.den))

    def __rsub__(self, other):
        o = _lift(self.table, other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _lift(self.table, other)
        if o is None:
            return NotImplemented
        return Scalar(self.table, _pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(self.table, other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise PoleError("division by zero")
        return Scalar(self.table, _pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = _lift(self.table, other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Scalar(self.table, _pneg(self.num), self.den)

    def __pow__(self, e):
        if not isinstance(e, int) or isinstance(e, bool):
            return NotImplemented
        num, den = self.num, self.den
        if e < 0:
            if not num:
                raise PoleError("zero raised to a negative power")
            num, den, e = den, num, -e
        if len(num) == 1 and len(den) == 1:
            return Scalar(self.table, *_term_power(self.table, num, den, e))
        # square and multiply
        base = self if num is self.num else Scalar(self.table, num, den)
        out = self.table.one()
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def conjugate(self) -> "Scalar":
        return Scalar(self.table, _pconj(self.num), _pconj(self.den))

    def __eq__(self, other):
        o = _lift(self.table, other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        return _pmul(self.num, o.den) == _pmul(o.num, self.den)

    __hash__ = None  # equality is by value across representations

    # -- rendering --

    def __str__(self):
        try:
            return _scalar_str(self)
        except ValueError:  # raised only by an int longer than sys.get_int_max_str_digits()
            raise PrintLimitExceeded(
                "value too long to print: it has an integer of more than "
                f"{sys.get_int_max_str_digits()} digits") from None

    def __repr__(self):
        return f"Scalar({self})"


def _term_power(table, num, den, e: int):
    """One stored term over one to the power e >= 0: the exponents scaled,
    the coefficients powered.  The bound is checked first, as a field
    past 2^64 would carry."""
    (a, c), = num.items()
    (b, d), = den.items()
    for name, x in zip(table.names, table._unpack(a | b)):
        if x * e > MAX_SYMBOL_EXPONENT:
            raise ExponentLimitExceeded(name)
    return {a * e: _gpow(c, e)}, {b * e: _gpow(d, e)}


def _dot(table: SymbolTable, pairs) -> Scalar:
    """The sum of a*b over a nonempty list of (a, b) pairs of nonzero
    Scalars, taken in order.

    When every factor has a one-term denominator, each product is a
    Laurent polynomial over a Gaussian-integer constant, and the sum is
    formed over the lcm monomial and one positive int denominator and
    canonicalised once.  Such a value has a single canonical form, so
    this gives the stored form the step-by-step sum gives.  Otherwise
    the products are summed step by step, whose stored form (with two or
    more active symbols, where no gcd is taken) depends on that route.
    """
    if len(pairs) == 1 or not all(len(a.den) == 1 and len(b.den) == 1 for a, b in pairs):
        return reduce(add, (a * b for a, b in pairs))
    terms = []
    for a, b in pairs:
        (ea, ca), = a.den.items()
        (eb, cb), = b.den.items()
        # a*b = a.num*b.num*conj(c) / (|c|^2 * x^m) for c = ca*cb, m = ea + eb
        cr, ci = _gmul(ca, cb)
        terms.append((a.num, b.num, (cr, -ci), cr * cr + ci * ci, ea + eb))
    lcm = math.lcm(*(t[3] for t in terms))
    tops = {t[4] for t in terms}
    top = tops.pop() if len(tops) == 1 else _fields(table._masks, tops, max)
    num = {}
    for anum, bnum, (hr, hi), norm, m in terms:
        s = lcm // norm
        h = (hr * s, hi * s)
        shift = top - m  # no field borrows: top is m's fieldwise maximum
        _pmul({e + shift: _gmul(c, h) for e, c in anum.items()}, bnum, num)
    return Scalar(table, num, {top: (lcm, 0)})


def sqrt_scalar(value: Scalar) -> Optional[Scalar]:
    """Exact square root of monomial-over-monomial values, else None.

    Covers everything this package needs roots of: constants such as -4
    or 2*i, and single-term ratios such as i*x^2/(2*y^2) whose exponents
    are all even and whose coefficient ratio is a perfect square in Q(i).
    """
    if value.is_zero():
        return value.table.zero()
    if len(value.num) != 1 or len(value.den) != 1:
        return None
    (ne, nc), = value.num.items()
    (de, dc), = value.den.items()
    table = value.table
    if (ne | de) & table._pack([1] * table.n):
        return None  # an odd exponent
    # nc/dc = z/m^2 for the Gaussian integer z = nc*conj(dc)*m, m = |dc|^2
    m = dc[0] * dc[0] + dc[1] * dc[1]
    c, d = _gmul(nc, (dc[0] * m, -dc[1] * m))
    if d:
        r = math.isqrt(c * c + d * d)
        a = math.isqrt((c + r) // 2) if r * r == c * c + d * d else 0
        # (a + b*i)^2 = z needs c + r = 2*a^2 and d = 2*a*b
        if not a or 2 * a * a != c + r or d % (2 * a):
            return None
        root = (a, d // (2 * a))
    else:
        a = math.isqrt(abs(c))
        if a * a != abs(c):
            return None
        root = (a, 0) if c > 0 else (0, a)
    # every field even: one shift halves them all
    return Scalar(table, {ne >> 1: root}, {de >> 1: (m, 0)})


# -- text form -------------------------------------------------------------


def _signed_term(coeff: str, monomial: str) -> str:
    """coeff*monomial as one term of a signed sum.

    A coefficient of 1 or -1 is dropped, one that is itself a sum is
    parenthesised, and an empty monomial leaves the bare coefficient.
    """
    if not monomial:
        return coeff
    if coeff == "1":
        return monomial
    if coeff == "-1":
        return "-" + monomial
    if " + " in coeff or " - " in coeff:
        coeff = f"({coeff})"
    return f"{coeff}*{monomial}"


def _ratio_str(x: int, d: int) -> str:
    """str(Fraction(x, d)) for the positive int d, without building the Fraction."""
    if d == 1:
        return str(x)
    g = math.gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _term_str(names, exps, re: int, im: int, d: int) -> str:
    # the term (re + im*i)/d times the monomial of exps
    mono = "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e)
    if not im:
        return _signed_term(_ratio_str(re, d), mono)
    # the coefficient re + im*i is itself a signed sum of up to two terms
    return _signed_term(_join_terms([_signed_term(_ratio_str(c, d), m)
                                     for c, m in ((re, ""), (im, "i")) if c]), mono)


def _join_terms(pieces: Sequence[str]) -> str:
    """Signed term texts as one sum, a leading '-' becoming ' - '; '0' if none."""
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _poly_str(table, poly, d: int) -> str:
    # the int-pair polynomial divided by the positive int d
    return _join_terms([_term_str(table.names, table._unpack(e), *poly[e], d)
                        for e in sorted(poly, reverse=True)])


def _is_bare_mixed(poly) -> bool:
    # a lone constant term that renders as "a + b*i" needs wrapping
    if len(poly) != 1:
        return False
    (e, (re, im)), = poly.items()
    return not e and bool(re) and bool(im)


def _scalar_str(s: Scalar) -> str:
    table = s.table
    den = s.den
    if len(den) == 1 and 0 in den:
        return _poly_str(table, s.num, den[0][0])
    num = _poly_str(table, s.num, 1)
    den = _poly_str(table, den, 1)
    if len(s.num) > 1 or _is_bare_mixed(s.num):
        num = f"({num})"
    if len(s.den) > 1 or "*" in den or den.startswith("-") or _is_bare_mixed(s.den):
        den = f"({den})"
    return f"{num}/{den}"
