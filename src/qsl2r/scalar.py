"""Scalars at a fixed odd root of unity.

Everything in the toolkit is computed over q = exp(2*pi*i*P/Q) with Q odd,
Q >= 3 and gcd(P, Q) = 1.  Integer powers of q generate the cyclotomic field
Q(zeta_Q); those are carried exactly (`CycloNum`: integer coefficient vector
in the power basis zeta^0..zeta^(deg-1) over a common denominator, reduced
modulo the Q-th cyclotomic polynomial).  Non-integer exponents fall back to
complex floating point.  A scalar is therefore one of

    CycloNum            exact element of Q(zeta_Q)
    GaussCyclo          exact element of Q(zeta_Q)(i)  (re + i*im pair;
                        i is not in Q(zeta_Q) when Q is odd)
    complex             floating point

and arithmetic never mixes the exact and floating tags implicitly: combining
a CycloNum with a float/complex raises TypeError, the embedding into complex
is the explicit `to_complex`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

# Default float comparison: relative with an absolute floor.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def is_close(a, b, rtol: float = REL_TOL, atol: float = ABS_TOL) -> bool:
    """abs(a-b) <= max(atol, rtol*max(|a|,|b|)) on complex values."""
    a = complex(a)
    b = complex(b)
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# cyclotomic polynomials (integer coefficients, ascending degree)
# ---------------------------------------------------------------------------

_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic; division must be exact (used only inside the Phi recursion)
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        out[k - dn] = c
        if c:
            for i, d in enumerate(den):
                num[k - dn + i] -= c * d
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, computed by dividing x^n - 1 by the
    Phi_d of all proper divisors d | n.  Exact integer arithmetic throughout."""
    if n < 1:
        raise ValueError("n must be positive")
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    out = tuple(poly)
    _CYCLO_CACHE[n] = out
    return out


# ---------------------------------------------------------------------------
# root context
# ---------------------------------------------------------------------------


class RootContext:
    """The pair (P, Q) fixing q = exp(2*pi*i*P/Q), plus the data needed for
    exact arithmetic in Q(zeta_Q): Phi_Q and a reduction table for all powers
    zeta^0 .. zeta^(Q-1) in the power basis."""

    __slots__ = ("P", "Q", "phi_q", "degree", "_powers", "_units", "_zeta_c",
                 "q_complex", "_qnum_cache", "_subs_cache", "_zero", "_one")

    def __init__(self, P: int, Q: int):
        if not isinstance(P, int) or not isinstance(Q, int):
            raise ValueError("P and Q must be integers")
        if Q < 3:
            raise ValueError("Q must be at least 3")
        if Q % 2 == 0:
            raise ValueError("Q must be odd")
        if not 1 <= P <= Q - 1:
            raise ValueError("P must lie in 1..Q-1")
        if gcd(P, Q) != 1:
            raise ValueError("P and Q must be coprime")
        self.P = P
        self.Q = Q
        self.phi_q = cyclotomic_polynomial(Q)
        self.degree = len(self.phi_q) - 1
        # x^e mod Phi_Q for e = 0..Q-1 (beyond that fold with zeta^Q = 1)
        powers = []
        cur = [1] + [0] * (self.degree - 1)
        for _ in range(Q):
            powers.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [cur[i] - top * self.phi_q[i] for i in range(self.degree)]
        self._powers = tuple(powers)
        # the 2Q units +-zeta^e by coefficient vector; no two coincide, as -1
        # is not a Q-th root of unity for odd Q
        self._units = {}
        for e, row in enumerate(powers):
            self._units[row] = (e, 1)
            self._units[tuple(-c for c in row)] = (e, -1)
        self._zeta_c = tuple(cmath.exp(2j * math.pi * k / Q) for k in range(self.degree))
        self.q_complex = cmath.exp(2j * math.pi * P / Q)
        self._qnum_cache: dict[int, CycloNum] = {}
        # values at this q of rational functions of q, filled by their callers
        self._subs_cache: dict = {}
        self._zero = CycloNum(self, (0,) * self.degree, 1, _canonical=True)
        self._one = CycloNum(self, (1,) + (0,) * (self.degree - 1), 1, _canonical=True)

    def zero(self) -> "CycloNum":
        return self._zero

    def one(self) -> "CycloNum":
        return self._one

    def zeta(self, e: int) -> "CycloNum":
        """zeta_Q^e, reduced mod Phi_Q."""
        return CycloNum(self, self._powers[e % self.Q], 1, _canonical=True)

    def from_int(self, n: int) -> "CycloNum":
        return CycloNum(self, (n,) + (0,) * (self.degree - 1), 1)

    def from_fraction(self, f: Fraction | int) -> "CycloNum":
        f = Fraction(f)
        return CycloNum(self, (f.numerator,) + (0,) * (self.degree - 1), f.denominator)

    def __eq__(self, other):
        return isinstance(other, RootContext) and (self.P, self.Q) == (other.P, other.Q)

    def __hash__(self):
        return hash((self.P, self.Q))

    def __repr__(self):
        return f"RootContext(P={self.P}, Q={self.Q})"


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------


class CycloNum:
    """Element of Q(zeta_Q): integer coefficients in the power basis over a
    single positive denominator, gcd-reduced.  Immutable."""

    __slots__ = ("ctx", "coeffs", "den")

    def __init__(self, ctx: RootContext, coeffs, den: int = 1, _canonical: bool = False):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.degree:
            raise ValueError("coefficient vector has wrong length")
        if not _canonical:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den < 0:
                den = -den
                coeffs = tuple(-c for c in coeffs)
            g = den
            for c in coeffs:
                g = gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                den //= g
                coeffs = tuple(c // g for c in coeffs)
        self.ctx = ctx
        self.coeffs = coeffs
        self.den = den

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("operands live in different root contexts")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, Fraction):
            return self.ctx.from_fraction(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    # -- ring and field operations -------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return CycloNum(self.ctx, [a + b for a, b in zip(self.coeffs, o.coeffs)], self.den)
        return CycloNum(self.ctx,
                        [a * o.den + b * self.den for a, b in zip(self.coeffs, o.coeffs)],
                        self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.ctx, tuple(-c for c in self.coeffs), self.den, _canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return CycloNum(self.ctx, [a - b for a, b in zip(self.coeffs, o.coeffs)], self.den)
        return CycloNum(self.ctx,
                        [a * o.den - b * self.den for a, b in zip(self.coeffs, o.coeffs)],
                        self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        deg = self.ctx.degree
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:deg])
        powers = self.ctx._powers
        Q = self.ctx.Q
        for e in range(deg, 2 * deg - 1):
            c = conv[e]
            if c:
                row = powers[e % Q]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return CycloNum(self.ctx, out, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse: +-zeta^-e by table lookup for the units
        +-zeta^e, else the extended Euclidean algorithm with Phi_Q over Q[x]
        (Phi_Q is irreducible, so every nonzero element is a unit)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        ctx = self.ctx
        unit = ctx._units.get(self.coeffs) if self.den == 1 else None
        if unit is not None:
            e, sign = unit
            inv = ctx.zeta(-e)
            return inv if sign > 0 else -inv
        a = [Fraction(c, self.den) for c in self.coeffs]
        m = [Fraction(c) for c in self.ctx.phi_q]
        # extended gcd: u*a + v*m = r (constant), tracking u only
        r0, r1 = m, a
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if not r1:
                # unreachable for nonzero elements since Phi_Q is irreducible
                raise ZeroDivisionError("element shares a factor with Phi_Q")
            if len(r1) == 1:
                break
            quot, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _frac_poly_sub(u0, _frac_poly_mul(quot, u1))
        scale = r1[0]
        inv = [c / scale for c in u1]
        inv += [Fraction(0)] * (self.ctx.degree - len(inv))
        den = 1
        for c in inv:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in inv[:self.ctx.degree]]
        return CycloNum(self.ctx, ints, den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "CycloNum":
        """Complex conjugation, i.e. the field automorphism zeta -> zeta^-1."""
        ctx = self.ctx
        out = [0] * ctx.degree
        for e, c in enumerate(self.coeffs):
            if c:
                row = ctx._powers[(-e) % ctx.Q]
                for i in range(ctx.degree):
                    if row[i]:
                        out[i] += c * row[i]
        return CycloNum(ctx, out, self.den)

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_fraction(Fraction(other))
        if isinstance(other, CycloNum):
            return ((self.ctx is other.ctx or self.ctx == other.ctx)
                    and self.coeffs == other.coeffs and self.den == other.den)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.coeffs, self.den))

    def __complex__(self):
        zc = self.ctx._zeta_c
        acc = 0j
        for c, z in zip(self.coeffs, zc):
            if c:
                acc += c * z
        return acc / self.den

    def __repr__(self):
        terms = []
        for e, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*zeta^{e}" if e else f"{c}")
        body = " + ".join(terms) if terms else "0"
        return f"({body})/{self.den}" if self.den != 1 else body


class GaussCyclo:
    """Element of Q(zeta_Q)(i) as re + i*im with cyclotomic components.
    Needed for the exact second-family matrices, whose entries carry a
    factor -i that is outside Q(zeta_Q) for odd Q."""

    __slots__ = ("re", "im")

    def __init__(self, re: CycloNum, im: CycloNum):
        if re.ctx != im.ctx:
            raise ValueError("components live in different root contexts")
        self.re = re
        self.im = im

    @property
    def ctx(self):
        return self.re.ctx

    @staticmethod
    def from_scalar(s, ctx: RootContext) -> "GaussCyclo":
        if isinstance(s, GaussCyclo):
            return s
        if isinstance(s, CycloNum):
            return GaussCyclo(s, s.ctx.zero())
        if isinstance(s, (int, Fraction)):
            return GaussCyclo(ctx.from_fraction(Fraction(s)), ctx.zero())
        raise TypeError(f"cannot embed {type(s).__name__} into Q(zeta_Q)(i)")

    def _coerce(self, other):
        if isinstance(other, GaussCyclo):
            return other
        if isinstance(other, (CycloNum, int, Fraction)):
            return GaussCyclo.from_scalar(other, self.ctx)
        return None

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussCyclo(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussCyclo(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussCyclo(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussCyclo":
        norm = self.re * self.re + self.im * self.im
        # norm = 0 with (re, im) != 0 would force i into Q(zeta_Q); impossible for odd Q
        inv = norm.inverse()
        return GaussCyclo(self.re * inv, -(self.im * inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "GaussCyclo":
        return GaussCyclo(self.re.conjugate(), -(self.im.conjugate()))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussCyclo({self.re!r}, {self.im!r})"


def gauss_i(ctx: RootContext) -> GaussCyclo:
    """The imaginary unit as an exact scalar."""
    return GaussCyclo(ctx.zero(), ctx.one())


# -- Fraction polynomial helpers (dense ascending coefficient lists) ---------


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over Q; the remainder keeps at least
    one coefficient."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 1)
    for k in range(len(a) - 1, db - 1, -1):
        if a[k]:
            c = a[k] / lead
            quot[k - db] = c
            for i in range(db + 1):
                a[k - db + i] -= c * b[i]
    while len(a) > 1 and not a[-1]:
        a.pop()
    return quot, a


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# q-powers and q-numbers
# ---------------------------------------------------------------------------


def _as_int(x):
    """Return x as a Python int when it is (exactly) a mathematical integer."""
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else None
    if isinstance(x, float):
        return int(x) if x == int(x) else None
    if isinstance(x, complex):
        if x.imag == 0.0 and x.real == int(x.real):
            return int(x.real)
        return None
    return None


def q_power(ctx: RootContext, x):
    """q^x = exp(2*pi*i*(P/Q)*x).  Exact (CycloNum) for integer x, complex
    otherwise.  Satisfies q_power(x)*q_power(-x) = 1."""
    xi = _as_int(x)
    if xi is not None:
        return ctx.zeta((ctx.P * xi) % ctx.Q)
    return cmath.exp(2j * math.pi * ctx.P * x / ctx.Q)


def q_number(ctx: RootContext, x):
    """[x]_q = (q^x - q^-x)/(q - q^-1); exact for integer x.  Q-periodic in x
    and odd: [-x] = -[x]."""
    xi = _as_int(x)
    if xi is not None:
        cached = ctx._qnum_cache.get(xi % ctx.Q)
        if cached is not None:
            return cached
        num = q_power(ctx, xi) - q_power(ctx, -xi)
        den = ctx.zeta(ctx.P) - ctx.zeta(-ctx.P)
        out = num / den
        ctx._qnum_cache[xi % ctx.Q] = out
        return out
    qx = cmath.exp(2j * math.pi * ctx.P * x / ctx.Q)
    return (qx - 1 / qx) / (ctx.q_complex - 1 / ctx.q_complex)


def to_complex(s) -> complex:
    """Embed any scalar (exact or floating) into a complex double."""
    if isinstance(s, (CycloNum, GaussCyclo)):
        return complex(s)
    if isinstance(s, (int, float, complex)):
        return complex(s)
    if isinstance(s, Fraction):
        return complex(s.numerator / s.denominator)
    raise TypeError(f"not a scalar: {type(s).__name__}")


def is_exact(s) -> bool:
    return isinstance(s, (CycloNum, GaussCyclo))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def scalar_to_json(s):
    """CycloNum -> list of [num, den] decimal strings (one pair per basis
    coefficient); GaussCyclo -> {"re": ..., "im": ...}; complex -> [re, im]."""
    if isinstance(s, CycloNum):
        return [[str(Fraction(c, s.den).numerator), str(Fraction(c, s.den).denominator)]
                for c in s.coeffs]
    if isinstance(s, GaussCyclo):
        return {"re": scalar_to_json(s.re), "im": scalar_to_json(s.im)}
    c = to_complex(s)
    return [c.real, c.imag]


def scalar_from_json(obj, ctx: RootContext):
    if isinstance(obj, dict):
        return GaussCyclo(scalar_from_json(obj["re"], ctx), scalar_from_json(obj["im"], ctx))
    if isinstance(obj, list) and obj and isinstance(obj[0], list):
        fracs = [Fraction(int(n), int(d)) for n, d in obj]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return CycloNum(ctx, [int(f * den) for f in fracs], den)
    if isinstance(obj, list) and len(obj) == 2:
        return complex(obj[0], obj[1])
    raise ValueError("unrecognized scalar encoding")
