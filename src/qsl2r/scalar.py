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

Most exact products have a unit factor +-zeta^e (the entries of Z and
Z^-1, the powers of q that scale X and Y).  Such a product rotates the
other factor's coefficients and folds the overflow back with the rows of
zeta^deg..zeta^(Q-1), the sign in the same list pass; at prime Q the one
such row is zeta^(Q-1) = -(1 + zeta + ... + zeta^(Q-2)), so the fold is
one subtraction from every coefficient.  It keeps the coefficient
content, so it needs no gcd.  The context keeps one value per unit, and
units are inverted, raised to powers and multiplied by units by table
lookup; the q-number [n] is a sum of n powers of q.  Any other element a is inverted
through the Galois maps sigma_k: zeta -> zeta^k (`_galois`, gcd(k, Q) = 1;
`conjugate` is k = -1): the product of the sigma_k(a) for k != 1 over the
field norm, a rational.

Exact zeros modulo split primes.  Whether an exact expression is zero can
be decided from its images in a few prime fields instead of its value.
Take primes p = 1 (mod 4Q) below 2^25 (`RootContext.split_primes`): F_p
then holds an omega of order Q and an iota with iota^2 = -1, and p splits
completely in Q(zeta_4Q), which contains Q(zeta_Q)(i).  The images of a
CycloNum a are a(omega^k) mod p for the k coprime to Q; a GaussCyclo
re + i im gets re(omega^k) + iota im(omega^k) and re(omega^k) - iota
im(omega^k) (`split_images`).  These are the reductions of Z[zeta_4Q]
modulo the 2 phi(Q) primes above p, so they are ring maps on every element
whose denominator p does not divide, and an expression's images follow from
its parts' images by F_p arithmetic.

Lemma.  Let alpha be an algebraic integer of Q(zeta_4Q) whose images all
vanish modulo p_1, ..., p_m.  Then alpha lies in (p_1 ... p_m) Z[zeta_4Q];
so if alpha != 0, then |N(alpha)| >= (p_1 ... p_m)^deg and some embedding
sigma has |sigma(alpha)| >= p_1 ... p_m.
Proof.  Z[zeta_4Q] is the ring of integers of Q(zeta_4Q).  Each p_i does
not divide 4Q, so it is unramified, and p_i = 1 (mod 4Q) makes it split
completely: p_i Z[zeta_4Q] is the product of the deg = phi(4Q) distinct
primes (p_i, zeta_4Q - g^k), g of order 4Q mod p_i, whose residue maps are
the images above.  An alpha in all of them lies in their intersection, which
is their product p_i Z[zeta_4Q]; the p_i are coprime, so alpha lies in
(p_1 ... p_m) Z[zeta_4Q].  Then alpha / (p_1 ... p_m) is a nonzero algebraic
integer, its norm is a nonzero integer, and N(alpha) is (p_1 ... p_m)^deg
times it; the norm is the product of the deg embeddings, so one of them
has absolute value at least p_1 ... p_m.

The bound.  |sigma(a)| <= ||a||_1, the sum of the absolute values of the
power-basis coefficients divided by the denominator, for every embedding
(each |sigma(zeta^e)| is 1), and as the zeta^i for i < Q sum to zero, the
coefficients of zeta^0..zeta^(Q-1) may first be shifted by a common
integer; |sigma(re + i im)| <= ||re||_1 + ||im||_1.
The bound carries through sums, products and matrix products (row sums).
Certificate.  Clear the denominators of an expression alpha with an integer
D that no p_i divides, so that D alpha is an algebraic integer, and bound
|sigma(D alpha)| <= B.  If every image of alpha vanishes and B < p_1 ...
p_m, then alpha = 0 exactly.  A nonzero image proves alpha != 0.

All of the certificate's rules live here, so a caller supplies only the
images of its expressions: `pack` lays exact values out as coefficient
arrays (int64, or Python ints past int64), `split_images` maps them to
their images (one float64 BLAS product per prime of the residues with
two halves of its power matrix E, exact by the bound beside
INT64_SUM_TERMS), `entry_bounds`, `matrix_bound` and `sum_bound` give D and a
bound N on |sigma(D alpha)| for entries, matrices and sums of products,
and `split_verdicts` holds the prime budget, MAX_SPLIT_PRIMES, and decides.
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import neg

import numpy as np

# Default float comparison: relative with an absolute floor.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Every split prime lies below 2^25, so a product of two residues is below
# 2^50 and an int64 holds a sum of 2^13 of them before it must be reduced.
# `split_images` multiplies residues by a 12-bit and a 13-bit half of E in
# float64: each product is below 2^38, so a sum of deg < 2^15 of them is an
# integer below 2^53, exact in any order; while deg < 2^13, as the callers
# keep it, 2^12 times the high sum plus the low one is below 2^63.
SPLIT_PRIME_BOUND = 1 << 25
INT64_SUM_TERMS = 1 << 13
# Beyond this many split primes a bound is left undecided.
MAX_SPLIT_PRIMES = 6


def is_close(a, b, rtol: float = REL_TOL, atol: float = ABS_TOL) -> bool:
    """abs(a-b) <= max(atol, rtol*max(|a|,|b|)) on complex values."""
    a = complex(a)
    b = complex(b)
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# cyclotomic polynomials (integer coefficients, ascending degree)
# ---------------------------------------------------------------------------

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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, computed by dividing x^n - 1 by the
    Phi_d of all proper divisors d | n.  Exact integer arithmetic throughout."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


# ---------------------------------------------------------------------------
# root context
# ---------------------------------------------------------------------------


class RootContext:
    """The pair (P, Q) fixing q = exp(2*pi*i*P/Q), plus the data needed for
    exact arithmetic in Q(zeta_Q): Phi_Q and a reduction table for all powers
    zeta^0 .. zeta^(Q-1) in the power basis."""

    __slots__ = ("P", "Q", "phi_q", "degree", "_sparse_powers", "_units",
                 "_zeta_c", "q_complex", "_qnum_cache", "_subs_cache", "_image_cache",
                 "_split_primes", "_pad", "_unit_values", "_zero", "_one")

    def __init__(self, P: int, Q: int):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (P, Q)):
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
        self._pad = (0,) * (Q - self.degree)    # power-basis coefficients to length Q
        # the same rows as (index, coefficient) pairs of their nonzero entries
        self._sparse_powers = tuple(tuple((i, c) for i, c in enumerate(row) if c)
                                    for row in powers)
        # the 2Q units +-zeta^e, as values by sign and exponent and as (e,
        # sign) by coefficient vector; no two coincide, as -1 is not a Q-th
        # root of unity for odd Q
        self._unit_values = {sign: tuple(CycloNum(self, tuple(sign * c for c in row), 1,
                                                  _canonical=True) for row in powers)
                             for sign in (1, -1)}
        self._units = {u.coeffs: (e, sign) for sign, values in self._unit_values.items()
                       for e, u in enumerate(values)}
        self._zeta_c = tuple(cmath.exp(2j * math.pi * k / Q) for k in range(self.degree))
        self.q_complex = cmath.exp(2j * math.pi * P / Q)
        self._qnum_cache: dict[int, CycloNum] = {}
        # values at this q of rational functions of q, and their images
        # modulo split primes, filled by their callers
        self._subs_cache: dict = {}
        self._image_cache: dict = {}
        self._split_primes: list = []
        self._zero = CycloNum(self, (0,) * self.degree, 1, _canonical=True)
        self._one = CycloNum(self, (1,) + (0,) * (self.degree - 1), 1, _canonical=True)

    def zero(self) -> "CycloNum":
        return self._zero

    def one(self) -> "CycloNum":
        return self._one

    def zeta(self, e: int, sign: int = 1) -> "CycloNum":
        """sign zeta_Q^e, reduced mod Phi_Q: one value per unit, kept, as a
        CycloNum is immutable."""
        return self._unit_values[sign][e % self.Q]

    def from_int(self, n: int) -> "CycloNum":
        return CycloNum(self, (n,) + (0,) * (self.degree - 1), 1)

    def from_fraction(self, f: Fraction | int) -> "CycloNum":
        f = Fraction(f)
        return CycloNum(self, (f.numerator,) + (0,) * (self.degree - 1), f.denominator)

    def split_primes(self, m: int) -> list:
        """The m largest primes p < 2^25 with p = 1 (mod 4Q), each as
        (p, omega, iota, E): omega of order Q, iota with iota^2 = -1 in F_p,
        and E[i, t] = omega^(k_t i) mod p over the k_t coprime to Q, the
        int64 matrix mapping power-basis coefficients to images.  Found on
        first use and kept; fewer than m come back only when Q is so large
        that fewer exist."""
        found = self._split_primes
        if len(found) >= m:
            return found[:m]
        step = 4 * self.Q
        n = found[-1][0] - step if found else (SPLIT_PRIME_BOUND - 2) // step * step + 1
        units = [k for k in range(1, self.Q) if gcd(k, self.Q) == 1]
        while len(found) < m and n > step:
            if _is_prime(n):
                omega, iota = _root_of_order(n, self.Q), _root_of_order(n, 4)
                E = np.array([[pow(omega, k * i, n) for k in units] for i in range(self.degree)],
                             dtype=np.int64)
                found.append((n, omega, iota, E))
            n -= step
        return found[:m]

    def __eq__(self, other):
        return isinstance(other, RootContext) and (self.P, self.Q) == (other.P, other.Q)

    def __hash__(self):
        return hash((self.P, self.Q))

    def __repr__(self):
        return f"RootContext(P={self.P}, Q={self.Q})"


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------


def _power(x, n: int, one):
    """x^n by repeated squaring through `*`, of x's inverse when n < 0."""
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


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
        return CycloNum(self.ctx, tuple(map(neg, self.coeffs)), self.den, _canonical=True)

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
        ctx = self.ctx
        units = ctx._units
        mine = units.get(self.coeffs) if self.den == 1 else None
        theirs = units.get(o.coeffs) if o.den == 1 else None
        if theirs is not None:
            if mine is not None:        # a unit times a unit, by table lookup
                return ctx.zeta(mine[0] + theirs[0], mine[1] * theirs[1])
            return self._times_unit(*theirs)
        if mine is not None:
            return o._times_unit(*mine)
        deg = ctx.degree
        nonzero_o = [(j, b) for j, b in enumerate(o.coeffs) if b]
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero_o:
                    conv[i + j] += a * b
        out = conv[:deg]
        rows = ctx._sparse_powers
        Q = ctx.Q
        for e in range(deg, 2 * deg - 1):
            c = conv[e]
            if c:
                for i, r in rows[e % Q]:
                    out[i] += c * r
        return CycloNum(ctx, out, self.den * o.den)

    def _times_unit(self, e: int, sign: int) -> "CycloNum":
        """self * (sign zeta^e): rotate the coefficients, padded to length
        Q, by e and fold the slots deg..Q-1 back with the rows of
        zeta^deg..zeta^(Q-1), the sign taken in the same list pass.  At
        prime Q the one such slot is zeta^(Q-1) = -(1 + zeta + ... +
        zeta^(Q-2)), so the fold is one subtraction from every coefficient.
        Multiplying by zeta^e is a Z-linear automorphism of Z[zeta], so the
        coefficient content, and with it the reduced denominator, does not
        change: no gcd is needed."""
        ctx = self.ctx
        Q, deg = ctx.Q, ctx.degree
        v = self.coeffs + ctx._pad
        v = v[Q - e:] + v[:Q - e]
        if deg == Q - 1:
            t = v[deg]
            out = ([c - t for c in v[:deg]] if sign > 0 else
                   [t - c for c in v[:deg]])
        else:
            out = list(v[:deg])
            rows = ctx._sparse_powers
            for s in range(deg, Q):
                c = v[s]
                if c:
                    for i, r in rows[s]:
                        out[i] += c * r
            if sign < 0:
                out = map(neg, out)
        return CycloNum(ctx, out, self.den, _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse: +-zeta^-e by table lookup for the units
        +-zeta^e, else the product of the other Galois conjugates sigma_k(a)
        divided by the field norm N(a) = a * prod_k sigma_k(a), a rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        ctx = self.ctx
        unit = ctx._units.get(self.coeffs) if self.den == 1 else None
        if unit is not None:
            e, sign = unit
            return ctx.zeta(-e, sign)
        rest = ctx.one()
        for k in range(2, ctx.Q):
            if gcd(k, ctx.Q) == 1:
                rest = rest * self._galois(k)
        norm = self * rest
        if any(norm.coeffs[1:]):
            raise ArithmeticError(f"the norm of {self!r} is not rational")
        return CycloNum(ctx, [c * norm.den for c in rest.coeffs], rest.den * norm.coeffs[0])

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
        """self^n: (sign zeta^e)^n = sign^n zeta^(e n) by table lookup for
        the units, repeated squaring otherwise."""
        if not isinstance(n, int):
            return NotImplemented
        unit = self.ctx._units.get(self.coeffs) if self.den == 1 else None
        if unit is not None:
            e, sign = unit
            return self.ctx.zeta(e * n, sign ** (n & 1))
        return _power(self, n, self.ctx.one())

    def _galois(self, k: int) -> "CycloNum":
        """The field automorphism sigma_k: zeta -> zeta^k, gcd(k, Q) = 1.
        It maps Z[zeta] onto itself, so the coefficient content and the
        reduced denominator do not change: no gcd is needed."""
        ctx = self.ctx
        out = [0] * ctx.degree
        rows = ctx._sparse_powers
        for e, c in enumerate(self.coeffs):
            if c:
                for i, r in rows[k * e % ctx.Q]:
                    out[i] += c * r
        return CycloNum(ctx, out, self.den, _canonical=True)

    def conjugate(self) -> "CycloNum":
        """Complex conjugation, i.e. the field automorphism zeta -> zeta^-1."""
        return self._galois(-1)

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
        if isinstance(other, (CycloNum, int, Fraction)):
            # a real factor scales both components: two products, not four
            return GaussCyclo(self.re * other, self.im * other)
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

    def __pow__(self, n: int):
        """self^n by repeated squaring; a real value (im = 0) is its real
        part's power, so a unit stays one lookup."""
        if not isinstance(n, int):
            return NotImplemented
        if self.im.is_zero():
            return GaussCyclo(self.re ** n, self.im)
        return _power(self, n, GaussCyclo.from_scalar(1, self.ctx))

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


# ---------------------------------------------------------------------------
# images modulo split primes (the certificate is in the module docstring)
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5, 7, which decide every n below
    3,215,031,751."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root_of_order(p: int, n: int) -> int:
    """An element of order exactly n in F_p, for n dividing p - 1."""
    factors = {f for f in range(2, n + 1) if n % f == 0 and _is_prime(f)}
    for h in range(2, p):
        r = pow(h, (p - 1) // n, p)
        if all(pow(r, n // f, p) != 1 for f in factors):
            return r
    raise ArithmeticError(f"F_{p} has no element of order {n}")


def pack(values, ctx: RootContext):
    """(C, dens) for exact values: C[v, j] the power-basis coefficients and
    dens[v, j] the denominator of part j of value v.  A CycloNum has one
    part; if any value is a GaussCyclo, every value has two, re and im.
    int64 arrays when every coefficient lies below 2^62 / Q in magnitude,
    so that every sum `entry_bounds` forms fits, else Python ints."""
    width = 2 if any(type(v) is GaussCyclo for v in values) else 1
    if width == 2:
        values = [part for v in values for g in (GaussCyclo.from_scalar(v, ctx),)
                  for part in (g.re, g.im)]
    coeffs, dens = [v.coeffs for v in values], [v.den for v in values]
    lim = (1 << 62) // ctx.Q
    try:
        C = np.fromiter(chain.from_iterable(coeffs), np.int64, len(coeffs) * ctx.degree)
        D = np.array(dens, dtype=np.int64)
        fits = not C.size or (C.max() < lim and C.min() > -lim)
    except OverflowError:
        fits = False
    if not fits:
        C, D = np.array(coeffs, dtype=object), np.array(dens, dtype=object)
    n = len(values) // width
    return C.reshape(n, width, ctx.degree), D.reshape(n, width)


def split_moduli(ctx: RootContext, m: int, gauss: bool) -> np.ndarray:
    """The prime of each column of `split_images`, kept on ctx."""
    key = "moduli", m, gauss
    if key not in ctx._image_cache:
        primes = [p for p, *_ in ctx.split_primes(m)]
        ctx._image_cache[key] = np.repeat(primes, ctx.degree * (1 + gauss))
    return ctx._image_cache[key]


def _halves(ctx: RootContext, p: int, E: np.ndarray) -> tuple:
    """E = lo + 2^12 hi as float64 arrays, lo below 2^12 and hi below 2^13,
    kept on ctx (the bound that makes their products exact is beside
    INT64_SUM_TERMS)."""
    key = "halves", p
    if key not in ctx._image_cache:
        ctx._image_cache[key] = ((E & 0xFFF).astype(np.float64), (E >> 12).astype(np.float64))
    return ctx._image_cache[key]


def split_images(packed, ctx: RootContext, m: int, gauss: bool) -> np.ndarray:
    """The images of `pack`ed values under the first m split primes: int64
    residues, a row per value and a column per image, over the primes,
    then the k coprime to Q and, with gauss (implied by values of two
    parts), iota then -iota; without gauss the pair is one column, as the
    images of an element of Q(zeta_Q) agree there.  The residues meet E
    in float64 BLAS, one exact product per half of E (`_halves`).  Raises
    ZeroDivisionError when a prime divides a denominator."""
    n, width, deg = packed[0].shape
    C, dens = packed[0].reshape(-1, deg), packed[1].ravel().tolist()
    gauss = gauss or width == 2
    cols = []
    for p, _, iota, E in ctx.split_primes(m):
        residues = {den % p for den in dens}
        if 0 in residues:
            raise ZeroDivisionError(f"the split prime {p} divides a denominator")
        R, (lo, hi) = np.asarray(C % p, dtype=np.float64), _halves(ctx, p, E)
        img = ((R @ hi).astype(np.int64) << 12) + (R @ lo).astype(np.int64)
        img %= p
        if residues != {1}:     # else every inverse is 1
            inv = {r: pow(r, -1, p) for r in residues}
            img *= np.array([inv[den % p] for den in dens], dtype=np.int64)[:, None]
            img %= p
        re = img[::width]       # a value's parts are consecutive rows
        if gauss:
            im = img[1::2] * iota % p if width == 2 else 0
            re = np.stack([(re + im) % p, (re - im) % p], axis=-1).reshape(n, 2 * E.shape[1])
        cols.append(re)
    return np.concatenate(cols, axis=1)


def entry_bounds(packed, ctx: RootContext) -> list:
    """(D, N) for each value `pack`ed: D v is an algebraic integer and N >=
    |sigma(D v)| for every embedding sigma.  The Q powers zeta^i sum to
    zero, so den * a = sum_{i<Q} (c_i - t) zeta^i for every integer t, with
    c_i = 0 for i >= deg; the median t gives the least sum of |c_i - t|, at
    most the plain one (t = 0), and 1 for every unit at prime Q, where
    zeta^(Q-1) folds to Q - 1 coefficients -1.  A GaussCyclo is bounded as
    the sum re + i im."""
    C, dens = packed
    n, width, deg = C.shape
    S = np.zeros((n * width, ctx.Q), dtype=C.dtype)
    S[:, :deg] = C.reshape(-1, deg)
    S.sort(axis=1)
    parts = iter(zip(dens.ravel().tolist(),
                     np.abs(S - S[:, ctx.Q // 2, None]).sum(axis=1).tolist()))
    if width == 1:
        return list(parts)
    return [sum_bound([[re], [im]]) for re, im in zip(parts, parts)]   # consecutive pairs


def sum_bound(terms) -> tuple[int, int]:
    """(D, N) for a sum of products, each term an iterable of its factors'
    (D, N), scalars or matrices (N bounding every row sum of |sigma|): a
    product's D and N are its factors' products, and a sum's D is the lcm
    of its terms', each term's N scaled to it."""
    prods = []
    for factors in terms:
        Dt = Nt = 1
        for D, N in factors:
            Dt *= D
            Nt *= N
        prods.append((Dt, Nt))
    D = math.lcm(*[Dt for Dt, _ in prods])
    return D, sum([D // Dt * Nt for Dt, Nt in prods])


def matrix_bound(rows, bounds) -> tuple[int, int]:
    """(D, N) for a matrix from the row and the (D, N) of each of its
    nonzero entries: D clears every denominator and N is the largest row
    sum of the entries' N scaled to D."""
    D = math.lcm(*[Da for Da, _ in bounds])
    sums = [0] * (max(rows, default=-1) + 1)
    for i, (Da, N) in zip(rows, bounds):
        sums[i] += D // Da * N
    return D, max(sums, default=0)


def _primes_needed(ctx: RootContext, bound: int) -> int | None:
    """The fewest leading split primes whose product exceeds bound, or None
    when MAX_SPLIT_PRIMES do not."""
    prod = 1
    for k in range(1, MAX_SPLIT_PRIMES + 1):
        primes = ctx.split_primes(k)
        if len(primes) < k:
            return None
        prod *= primes[-1][0]
        if prod > bound:
            return k
    return None


def split_verdicts(ctx: RootContext, bounds, nonzero) -> list:
    """The verdict on expressions alpha_k of Q(zeta_Q)(i) with bounds (D, N):
    True when all images of alpha_k under the first m split primes vanish
    and N < p_1 ... p_m, so alpha_k = 0; False when one does not; None
    when MAX_SPLIT_PRIMES primes do not exceed N or a prime divides a
    denominator.  m is the fewest primes that exceed every N of the
    expressions `decided`, and nonzero(m, decided) tells, for each in
    order, whether an image is nonzero, or raises ZeroDivisionError."""
    need = [_primes_needed(ctx, N) for _, N in bounds]
    decided = tuple(k for k, got in enumerate(need) if got is not None)
    out = [None] * len(bounds)
    try:
        found = nonzero(max(need[k] for k in decided), decided) if decided else ()
    except ZeroDivisionError:
        found = ()
    for k, nz in zip(decided, found):
        out[k] = not nz
    return out


# ---------------------------------------------------------------------------
# q-powers and q-numbers
# ---------------------------------------------------------------------------


def _as_int(x):
    """Return x as a Python int when it is (exactly) a mathematical integer:
    any integral number but a bool (numpy integers too), or an integral
    float, complex or Fraction; None otherwise, for every non-finite value
    too.  The concrete types come first, as an ABC check costs more."""
    if type(x) is int:
        return x
    if isinstance(x, complex):
        return _as_int(x.real) if x.imag == 0.0 else None
    if isinstance(x, float):
        return int(x) if x.is_integer() else None     # False for nan and +-inf
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else None
    if isinstance(x, numbers.Integral):
        return int(x)
    return None


def _phase(ctx: RootContext, x) -> complex:
    """q^x for a non-integer x; ValueError naming x unless it is finite."""
    if not cmath.isfinite(x):
        raise ValueError(f"q^x needs a finite x, got {x!r}")
    return cmath.exp(2j * math.pi * ctx.P * x / ctx.Q)


def q_power(ctx: RootContext, x):
    """q^x = exp(2*pi*i*(P/Q)*x).  Exact (CycloNum) for integer x, complex
    for any other finite x (ValueError otherwise).  Satisfies
    q_power(x)*q_power(-x) = 1."""
    xi = _as_int(x)
    if xi is not None:
        return ctx.zeta((ctx.P * xi) % ctx.Q)
    return _phase(ctx, x)


def q_number(ctx: RootContext, x):
    """[x]_q = (q^x - q^-x)/(q - q^-1); exact for integer x, complex for any
    other finite x (ValueError otherwise).  Q-periodic in x and odd:
    [-x] = -[x]."""
    xi = _as_int(x)
    if xi is not None:
        m = xi % ctx.Q
        cached = ctx._qnum_cache.get(m)
        if cached is None:
            # [m] = q^(m-1) + q^(m-3) + ... + q^(1-m): a sum of m powers of q
            out = [0] * ctx.degree
            for k in range(m):
                for i, c in ctx._sparse_powers[ctx.P * (m - 1 - 2 * k) % ctx.Q]:
                    out[i] += c
            cached = ctx._qnum_cache[m] = CycloNum(ctx, out, 1, _canonical=True)
        return cached
    qx = _phase(ctx, x)
    return (qx - 1 / qx) / (ctx.q_complex - 1 / ctx.q_complex)


def to_complex(s) -> complex:
    """Embed any scalar (exact or floating) into a complex double."""
    if isinstance(s, (CycloNum, GaussCyclo)):
        return complex(s)
    if isinstance(s, (int, float, complex)):
        return complex(s)
    if isinstance(s, Fraction):
        return complex(s.numerator / s.denominator)
    if isinstance(s, numbers.Integral):
        return complex(int(s))
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
        gs = [gcd(c, s.den) for c in s.coeffs]   # den > 0, so each g > 0
        return [[str(c // g), str(s.den // g)] for c, g in zip(s.coeffs, gs)]
    if isinstance(s, GaussCyclo):
        return {"re": scalar_to_json(s.re), "im": scalar_to_json(s.im)}
    c = to_complex(s)
    return [c.real, c.imag]


def scalar_from_json(obj, ctx: RootContext, backend: str | None = None):
    """Inverse of scalar_to_json and the one place that refuses a malformed
    scalar encoding, always with ValueError; so is a kind the backend does
    not hold ("exact": CycloNum or GaussCyclo, "approx": complex).  The
    loader decodes only a payload's params with it, never a matrix entry."""
    try:
        if isinstance(obj, dict) and backend != "approx":
            re, im = (scalar_from_json(obj[k], ctx, "exact") for k in ("re", "im"))
            if isinstance(re, CycloNum) and isinstance(im, CycloNum):
                return GaussCyclo(re, im)
        elif (isinstance(obj, list) and obj and backend != "approx"
              and all(type(p) is list for p in obj)):
            dens = [int(d, 10) for _, d in obj]   # int(s, 10) takes only strings
            den = math.lcm(*dens)
            return CycloNum(ctx, [int(n, 10) * (den // d) for (n, _), d in zip(obj, dens)], den)
        elif (isinstance(obj, list) and len(obj) == 2 and backend != "exact"
              and all(isinstance(v, (int, float)) for v in obj)):
            return complex(obj[0], obj[1])
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scalar encoding {obj!r}: {exc!r}") from exc
    raise ValueError(f"{obj!r} is no scalar of the {backend or 'exact or approx'} backend")
