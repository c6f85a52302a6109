"""Exact scalars: complex rationals extended by commuting formal symbols.

Values live in the fraction field Q(i)(s1, ..., sn).  A Scalar stores a
numerator and a denominator, each a sparse polynomial mapping exponent
tuples to Gaussian-rational coefficients.  All arithmetic is exact.

Canonical form, re-established by every constructor:

* zero is stored as 0/1,
* the monomial gcd of numerator and denominator is divided out, so the
  smallest exponent of each symbol appearing anywhere is zero,
* a constant denominator is folded into the numerator (den becomes 1),
* when at most one symbol is active, numerator and denominator are
  reduced by their univariate gcd,
* a surviving non-constant denominator is scaled so all coefficients are
  Gaussian integers of content one, then rotated by a unit so that the
  lexicographically leading denominator coefficient has positive real
  part and non-negative imaginary part.

With two or more active symbols no polynomial gcd is attempted, so
distinct stored forms can denote equal values; `==` therefore always
compares by cross-multiplication.  Scalars are deliberately unhashable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

__all__ = ["GaussRational", "PoleError", "Scalar", "SymbolTable", "UnknownSymbol", "sqrt_scalar"]


class UnknownSymbol(Exception):
    """A symbol name that the relevant table does not declare."""


class PoleError(ArithmeticError):
    """Division by an exact zero, or evaluation at a pole."""


def _frac_sqrt(f: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative Fraction, or None."""
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn != f.numerator or rd * rd != f.denominator:
        return None
    return Fraction(rn, rd)


class GaussRational:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __repr__(self):
        return f"GaussRational({self.re}, {self.im})"

    def __bool__(self):
        return bool(self.re or self.im)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __eq__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational((self.re * o.re + self.im * o.im) / n,
                             (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def sqrt(self) -> Optional["GaussRational"]:
        """The square root and whether it exists in Q(i).

        Of the two roots of a nonzero value, the one returned has
        positive real part, or zero real part and positive imaginary
        part.  Returns None when no root exists in Q(i).
        """
        c, d = self.re, self.im
        if not d:
            if not c:
                return GaussRational(0)
            if c > 0:
                s = _frac_sqrt(c)
                return None if s is None else GaussRational(s)
            s = _frac_sqrt(-c)
            return None if s is None else GaussRational(0, s)
        r = _frac_sqrt(c * c + d * d)
        if r is None:
            return None
        a = _frac_sqrt((c + r) / 2)
        if a is None or not a:
            return None
        return GaussRational(a, d / (2 * a))


def _as_gauss(value) -> Optional[GaussRational]:
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return GaussRational(value)
    return None


_G_ZERO = GaussRational(0)
_G_ONE = GaussRational(1)


class SymbolTable:
    """An ordered set of commuting symbol names shared by related scalars.

    Two tables are interchangeable exactly when their name tuples match;
    mixing scalars from tables with different names raises ValueError.
    """

    __slots__ = ("names", "_pos")

    def __init__(self, names: Iterable[str] = ()):
        names = tuple(names)
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
        self._pos = {name: k for k, name in enumerate(names)}

    def __repr__(self):
        return f"SymbolTable({list(self.names)!r})"

    def __eq__(self, other):
        return isinstance(other, SymbolTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def const(self, value) -> "Scalar":
        z = _as_gauss(value)
        if z is None:
            raise TypeError(f"cannot build a constant scalar from {value!r}")
        key = (0,) * self.n
        return Scalar(self, {key: z}, {key: _G_ONE})

    def zero(self) -> "Scalar":
        return self.const(0)

    def one(self) -> "Scalar":
        return self.const(1)

    def i(self) -> "Scalar":
        return self.const(GaussRational(0, 1))

    def symbol(self, name: str) -> "Scalar":
        k = self.index(name)
        key = tuple(1 if j == k else 0 for j in range(self.n))
        return Scalar(self, {key: _G_ONE}, {(0,) * self.n: _G_ONE})

    def symbols(self, *names: str):
        return tuple(self.symbol(name) for name in names)


# -- sparse polynomials: {exponent tuple: GaussRational}, no zero values --


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _pneg(a):
    return {e: -c for e, c in a.items()}


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _pconj(a):
    return {e: c.conjugate() for e, c in a.items()}


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
    for u in (_G_ONE, GaussRational(0, 1), GaussRational(-1), GaussRational(0, -1)):
        w = z * u
        if w.re > 0 and w.im >= 0:
            return u
    raise AssertionError("no quadrant unit for zero")


# -- dense univariate helpers (ascending coefficient lists) --


def _utrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _umod(a, b):
    a = list(a)
    nb = len(b)
    while len(a) >= nb:
        f = a[-1] / b[-1]
        if f:
            off = len(a) - nb
            for j in range(nb - 1):
                a[off + j] = a[off + j] - f * b[j]
        a.pop()
    return _utrim(a)


def _ugcd(a, b):
    a = _utrim(list(a))
    b = _utrim(list(b))
    while b:
        a, b = b, _umod(a, b)
    lead = a[-1]
    if lead != _G_ONE:
        a = [c / lead for c in a]
    return a


def _uquo(a, b):
    # exact quotient by a monic divisor
    a = list(a)
    q = [_G_ZERO] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1]
        q[len(a) - len(b)] = f
        if f:
            off = len(a) - len(b)
            for j in range(len(b) - 1):
                a[off + j] = a[off + j] - f * b[j]
        a.pop()
    assert not _utrim(a), "polynomial division was not exact"
    return q


def _dense(poly, k):
    deg = max(e[k] for e in poly)
    out = [_G_ZERO] * (deg + 1)
    for e, c in poly.items():
        out[e[k]] = c
    return out


def _undense(coeffs, k, n):
    out = {}
    for d, c in enumerate(coeffs):
        if c:
            out[tuple(d if j == k else 0 for j in range(n))] = c
    return out


def _canonical(n, num, den):
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise PoleError("denominator is identically zero")
    one_key = (0,) * n
    if not num:
        return {}, {one_key: _G_ONE}

    mins = [min(e[k] for e in (*num, *den)) for k in range(n)]
    if any(mins):
        num = {tuple(x - m for x, m in zip(e, mins)): c for e, c in num.items()}
        den = {tuple(x - m for x, m in zip(e, mins)): c for e, c in den.items()}

    def fold_constant_den():
        d = den[one_key]
        folded = num if d == _G_ONE else {e: c / d for e, c in num.items()}
        return folded, {one_key: _G_ONE}

    if len(den) == 1 and one_key in den:
        return fold_constant_den()

    active = [k for k in range(n) if any(e[k] for e in (*num, *den))]
    if len(active) == 1:
        k = active[0]
        a = _dense(num, k)
        b = _dense(den, k)
        g = _ugcd(a, b)
        if len(g) > 1:
            num = _undense(_uquo(a, g), k, n)
            den = _undense(_uquo(b, g), k, n)
            if len(den) == 1 and one_key in den:
                return fold_constant_den()

    lcm = 1
    for c in (*num.values(), *den.values()):
        lcm = math.lcm(lcm, c.re.denominator, c.im.denominator)
    if lcm != 1:
        z = GaussRational(lcm)
        num = {e: c * z for e, c in num.items()}
        den = {e: c * z for e, c in den.items()}

    g = (0, 0)
    for c in (*num.values(), *den.values()):
        g = _gint_gcd(g, (int(c.re), int(c.im)))
    gz = GaussRational(*g)
    gz = gz * _quad_unit(gz)
    if gz != _G_ONE:
        num = {e: c / gz for e, c in num.items()}
        den = {e: c / gz for e, c in den.items()}

    u = _quad_unit(den[max(den)])
    if u != _G_ONE:
        num = {e: c * u for e, c in num.items()}
        den = {e: c * u for e, c in den.items()}
    return num, den


class Scalar:
    """One exact value of the symbolic field Q(i)(s1, ..., sn)."""

    __slots__ = ("table", "num", "den")

    def __init__(self, table: SymbolTable, num: dict, den: dict):
        self.table = table
        self.num, self.den = _canonical(table.n, num, den)

    # -- predicates --

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def free_symbols(self) -> frozenset:
        """Names with a nonzero exponent somewhere in the stored form.

        Syntactic on the stored representation: a value with two or more
        active symbols is not gcd-reduced, so a symbol that would cancel
        can still be reported.
        """
        names = self.table.names
        out = set()
        for e in (*self.num, *self.den):
            for k, x in enumerate(e):
                if x:
                    out.add(names[k])
        return frozenset(out)

    def is_real(self) -> bool:
        """True when the value equals its conjugate (symbols count as real)."""
        return self == self.conjugate()

    # -- arithmetic --

    def _lift(self, other) -> Optional["Scalar"]:
        if isinstance(other, Scalar):
            if other.table.names != self.table.names:
                raise ValueError("scalars belong to different symbol tables")
            return other
        z = _as_gauss(other)
        if z is None:
            return None
        key = (0,) * self.table.n
        return Scalar(self.table, {key: z}, {key: _G_ONE})

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return Scalar(self.table, _padd(self.num, o.num), self.den)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return Scalar(self.table, num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return Scalar(self.table, _padd(self.num, _pneg(o.num)), self.den)
        num = _padd(_pmul(self.num, o.den), _pneg(_pmul(o.num, self.den)))
        return Scalar(self.table, num, _pmul(self.den, o.den))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Scalar(self.table, _pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise PoleError("division by zero")
        return Scalar(self.table, _pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Scalar(self.table, _pneg(self.num), self.den)

    def __pow__(self, e):
        if not isinstance(e, int) or isinstance(e, bool):
            return NotImplemented
        if e == 0:
            return self.table.one()
        if e < 0:
            if self.is_zero():
                raise PoleError("zero raised to a negative power")
            base = Scalar(self.table, self.den, self.num)
            e = -e
        else:
            base = self
        out = base
        for _ in range(e - 1):
            out = out * base
        return out

    def conjugate(self) -> "Scalar":
        return Scalar(self.table, _pconj(self.num), _pconj(self.den))

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        return _pmul(self.num, o.den) == _pmul(o.num, self.den)

    __hash__ = None  # equality is by value across representations

    # -- evaluation --

    def substitute(self, bindings: Mapping[str, object]) -> "Scalar":
        """Replace some symbols by values; hitting an exact pole raises.

        Values may be ints, Fractions, GaussRationals, or Scalars over
        the same table.  Unbound symbols stay symbolic.
        """
        table = self.table
        vals = list(table.symbols(*table.names))
        for name, value in bindings.items():
            k = table.index(name)
            if isinstance(value, Scalar):
                if value.table.names != table.names:
                    raise ValueError("binding value uses a different symbol table")
                vals[k] = value
            else:
                vals[k] = table.const(value)
        num = _eval_poly(table, self.num, vals)
        den = _eval_poly(table, self.den, vals)
        if den.is_zero():
            raise PoleError("substitution hits a pole of the value")
        return num / den

    # -- rendering --

    def __str__(self):
        return _scalar_str(self)

    def __repr__(self):
        return f"Scalar({self})"


def _eval_poly(table: SymbolTable, poly: dict, vals) -> Scalar:
    total = table.zero()
    for exps, coeff in poly.items():
        term = table.const(coeff)
        for v, e in zip(vals, exps):
            if e:
                term = term * v ** e
        total = total + term
    return total


def sqrt_scalar(value: Scalar) -> Optional[Scalar]:
    """Exact square root of monomial-over-monomial values, else None.

    Covers everything this package needs roots of: constants such as -4
    or 2*i, and single-term ratios such as 4*q^2 whose exponents are all
    even and whose coefficient is a perfect square in Q(i).
    """
    if value.is_zero():
        return value.table.zero()
    if len(value.num) != 1 or len(value.den) != 1:
        return None
    (ne, nc), = value.num.items()
    (de, dc), = value.den.items()
    if any(x % 2 for x in (*ne, *de)):
        return None
    nr = nc.sqrt()
    dr = dc.sqrt()
    if nr is None or dr is None:
        return None
    return Scalar(value.table,
                  {tuple(x // 2 for x in ne): nr},
                  {tuple(x // 2 for x in de): dr})


# -- text form -------------------------------------------------------------


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}*i"


def _mixed_str(z: GaussRational) -> str:
    sign = " + " if z.im > 0 else " - "
    return f"{z.re}{sign}{_imag_str(abs(z.im))}"


def _term_str(names, exps, z: GaussRational) -> str:
    mono = "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e)
    if not mono:
        if not z.im:
            return str(z.re)
        if not z.re:
            return _imag_str(z.im)
        return _mixed_str(z)
    if not z.im:
        if z.re == 1:
            return mono
        if z.re == -1:
            return "-" + mono
        return f"{z.re}*{mono}"
    if not z.re:
        return f"{_imag_str(z.im)}*{mono}"
    return f"({_mixed_str(z)})*{mono}"


def _join_terms(pieces: Sequence[str]) -> str:
    """Signed term texts as one sum, a leading '-' becoming ' - '; '0' if none."""
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _poly_str(names, poly) -> str:
    return _join_terms([_term_str(names, e, poly[e]) for e in sorted(poly, reverse=True)])


def _is_bare_mixed(poly) -> bool:
    # a lone constant term that renders as "a + b*i" needs wrapping
    if len(poly) != 1:
        return False
    (e, c), = poly.items()
    return not any(e) and bool(c.re) and bool(c.im)


def _scalar_str(s: Scalar) -> str:
    names = s.table.names
    num = _poly_str(names, s.num)
    if len(s.den) == 1 and s.den.get((0,) * s.table.n) == _G_ONE:
        return num
    den = _poly_str(names, s.den)
    if len(s.num) > 1 or _is_bare_mixed(s.num):
        num = f"({num})"
    if len(s.den) > 1 or "*" in den or den.startswith("-") or _is_bare_mixed(s.den):
        den = f"({den})"
    return f"{num}/{den}"
