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
zeta^deg..zeta^(Q-1); it keeps the coefficient content, so it needs no
gcd.  Units are inverted by table lookup, and the q-number [n] is a sum
of n powers of q.  Any other element a is inverted through the Galois maps
sigma_k: zeta -> zeta^k (`_galois`, gcd(k, Q) = 1; `conjugate` is k = -1):
the product of the sigma_k(a) for k != 1 over the field norm, a rational.

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
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

# Default float comparison: relative with an absolute floor.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Every split prime lies below 2^25, so a product of two residues is below
# 2^50 and an int64 holds a sum of 2^13 of them before it must be reduced.
SPLIT_PRIME_BOUND = 1 << 25
INT64_SUM_TERMS = 1 << 13


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

    __slots__ = ("P", "Q", "phi_q", "degree", "_powers", "_sparse_powers", "_units",
                 "_zeta_c", "q_complex", "_qnum_cache", "_subs_cache", "_image_cache",
                 "_split_primes", "_zero", "_one")

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
        # the same rows as (index, coefficient) pairs of their nonzero entries
        self._sparse_powers = tuple(tuple((i, c) for i, c in enumerate(row) if c)
                                    for row in powers)
        # the 2Q units +-zeta^e by coefficient vector; no two coincide, as -1
        # is not a Q-th root of unity for odd Q
        self._units = {}
        for e, row in enumerate(powers):
            self._units[row] = (e, 1)
            self._units[tuple(-c for c in row)] = (e, -1)
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

    def zeta(self, e: int) -> "CycloNum":
        """zeta_Q^e, reduced mod Phi_Q."""
        return CycloNum(self, self._powers[e % self.Q], 1, _canonical=True)

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
        ctx = self.ctx
        units = ctx._units
        unit = units.get(o.coeffs) if o.den == 1 else None
        if unit is not None:
            return self._times_unit(*unit)
        unit = units.get(self.coeffs) if self.den == 1 else None
        if unit is not None:
            return o._times_unit(*unit)
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
        zeta^deg..zeta^(Q-1).  Multiplying by zeta^e is a Z-linear
        automorphism of Z[zeta], so the coefficient content, and with it the
        reduced denominator, does not change: no gcd is needed."""
        ctx = self.ctx
        Q, deg = ctx.Q, ctx.degree
        v = list(self.coeffs) + [0] * (Q - deg)
        v = v[Q - e:] + v[:Q - e]
        out = v[:deg]
        rows = ctx._sparse_powers
        for s in range(deg, Q):
            c = v[s]
            if c:
                for i, r in rows[s]:
                    out[i] += c * r
        if sign < 0:
            out = [-c for c in out]
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
            inv = ctx.zeta(-e)
            return inv if sign > 0 else -inv
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


def split_images(values, ctx: RootContext, m: int, gauss: bool) -> np.ndarray:
    """The images of CycloNum (or, with gauss, GaussCyclo) values under the
    first m split primes of ctx: an int64 array of residues, one row per
    value and one column per image.  The columns run over the primes, then
    over the k coprime to Q and, with gauss, over iota then -iota; without
    gauss the pair collapses to one column, as the images of an element of
    Q(zeta_Q) agree there.  Raises ZeroDivisionError when a prime divides a
    denominator."""
    if gauss:
        gv = [GaussCyclo.from_scalar(v, ctx) for v in values]
        flat = [v.re for v in gv] + [v.im for v in gv]
    else:
        flat = list(values)
    coeffs = [v.coeffs for v in flat]
    try:
        C = np.array(coeffs, dtype=np.int64).reshape(len(flat), ctx.degree)
    except OverflowError:
        C = None
    cols = []
    for p, _, iota, E in ctx.split_primes(m):
        if C is not None:
            Cp = C % p
        else:
            Cp = np.array([[c % p for c in row] for row in coeffs],
                          dtype=np.int64).reshape(len(flat), ctx.degree)
        inv = {}
        for v in flat:
            if v.den not in inv:
                if v.den % p == 0:
                    raise ZeroDivisionError(f"the split prime {p} divides a denominator")
                inv[v.den] = pow(v.den, -1, p)
        # degree < 2^13 terms, each below 2^50, per entry of the product
        img = Cp @ E % p * np.array([inv[v.den] for v in flat], dtype=np.int64)[:, None] % p
        if gauss:
            n = len(values)
            re, im = img[:n], img[n:] * iota % p
            img = np.stack([(re + im) % p, (re - im) % p], axis=-1).reshape(n, 2 * img.shape[1])
        cols.append(img)
    return np.concatenate(cols, axis=1)


def l1_content(v) -> tuple[int, int]:
    """(D, n) with D v an algebraic integer and n >= |sigma(D v)| for every
    embedding sigma, for a CycloNum or GaussCyclo v."""
    if isinstance(v, GaussCyclo):
        D = math.lcm(v.re.den, v.im.den)
        return D, sum(D // part.den * _l1(part) for part in (v.re, v.im))
    return v.den, _l1(v)


def _l1(a: CycloNum) -> int:
    """A bound on |sigma(den * a)|.  The Q powers zeta^0..zeta^(Q-1) sum to
    zero, so den * a = sum_{i<Q} (c_i - t) zeta^i for every integer t, with
    c_i = 0 for i >= deg; the median t gives the least sum of |c_i - t|, at
    most the plain one (t = 0), and 1 for every unit at prime Q, where
    zeta^(Q-1) folds to Q - 1 coefficients -1."""
    c = sorted(a.coeffs + (0,) * (a.ctx.Q - a.ctx.degree))
    t = c[len(c) // 2]
    return sum(abs(x - t) for x in c)


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
