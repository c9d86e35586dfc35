"""Noncommutative Laurent polynomials in the generators X, Y, Z, Z^-1, J.

Words are strings over the letters X, Y, Z, z, J ('z' stands for Z^-1; the
text grammar spells it Zi).  Coefficients are rational functions of a formal
variable q.  A term may also carry an integer power of an auxiliary central
variable y (used to expand the cubic ladder identity, where y plays the role
of q^x).  q stays formal here: every identity verified in this module holds
for generic q, which is stronger than at any particular root of unity.

Products cancel Z z pairs on contact and apply no other relation.  The
defining relations of the algebra enter only through `pbw_normal_form`,
the unique normal form on the ordered basis Y^a X^b Z^c (c signed) of the
rewrite rules it lists (unique by Bergman's diamond lemma).  It multiplies
each word onto 1 one letter at a time by closed forms of those rules, so
no unordered word is built; J is multiplied in as q X Z^-1 - q^-1 Y Z^-1,
factor by factor.

`QRat` is its own class: its canonical form needs a gcd, save over a power
(q^2 - 1)^k, which every denominator the generic-q proof meets is.  Its
coefficients are plain ints while they are integral, as every coefficient
the PBW engine builds is, and Fractions only once a division makes them so.
A fraction over (q^2 - 1)^k, and a sum or product of two of them, is in
lowest terms with no gcd unless its numerator vanishes at q = 1 or q = -1;
any other fraction is reduced by the exact gcd.  The two sparse sums
share one base, `_SparseSum` (map key -> nonzero QRat, with +, -, * and
scalars on either side), and differ only in their keys: `NcPoly` maps
(word, y-power) and `TensorPoly` (word, word, y-power), multiplied leg by
leg.  Since y is central, a product joins the words and adds the powers.
QRat and the sparse sums take -, /, truth value and powers from the
shared operators of `scalar`.

The relations (`relation_sides`, Z Z^-1 = Z^-1 Z = 1 among them as raw
words), the cubic identity (`identity_sides`, `identity_coefficients`),
the recovery of X and Y from J and Z (`xy_recovery`) and the Hopf
structure (`coproduct`, `antipode` and `counit`, one extension rule over
per-letter tables, and `delta_j`) are written only here; `reps.evaluate`
maps the same polynomials, and tensor polynomials on a pair of
representations, onto matrices for the representation-level checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from .scalar import _nonzero, _power, _rsub, _rtruediv, _sub, _truediv

X, Y, Z, ZINV, J = "X", "Y", "Z", "z", "J"
LETTERS = "XYZzJ"

MAX_WORD_LEN = 64


class WordLengthError(ValueError):
    pass


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rational functions of q
# ---------------------------------------------------------------------------


def _strip(d):
    return {e: c for e, c in d.items() if c}


def _dense(d, lo, hi):
    out = [0] * (hi - lo + 1)
    for e, c in d.items():
        out[e - lo] = c
    return out


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over Q (dense ascending lists of int
    or Fraction, divided as Fractions); the remainder keeps at least one
    coefficient."""
    a = list(a)
    db = len(b) - 1
    lead = Fraction(b[-1])
    quot = [0] * max(len(a) - db, 1)
    for k in range(len(a) - 1, db - 1, -1):
        if a[k]:
            c = a[k] / lead
            quot[k - db] = c
            for i in range(db + 1):
                a[k - db + i] -= c * b[i]
    while len(a) > 1 and not a[-1]:
        a.pop()
    return quot, a


def _poly_gcd(a, b):
    # monic gcd over Q[q] on dense ascending lists
    while len(b) > 1 or b[0]:
        _, r = _poly_divmod(a, b)
        a, b = b, r
        if len(b) == 1 and not b[0]:
            break
    lead = Fraction(a[-1])
    return [c / lead for c in a]


_DEN_ONE = {0: 1}


class QRat:
    """Rational function of q: Laurent numerator over an ordinary-polynomial
    denominator with nonzero constant term and leading coefficient 1, the two
    coprime.  Immutable and canonical, so equality is dict equality.  Each
    coefficient is an int or a Fraction, never a float: ints while integral,
    Fractions from the exact gcd or a division by a leading coefficient
    that is not 1.  Fraction(n) == n and the two hash alike, so the type
    that holds a value changes neither equality nor key() nor the printed
    form.  The constructor shifts the denominator to an ordinary polynomial
    and reduces by two rules: over exactly (q^2 - 1)^k a numerator nonzero
    at q = +-1 is coprime already (`_coprime_to_den_power`); any other pair
    is divided by its exact gcd.  Over (q^2 - 1)^i and (q^2 - 1)^j a sum
    lifts the lower power and a product adds the powers, then takes the same
    test (`_pbw_coefficient`); other pairs are cross-multiplied."""

    __slots__ = ("num", "den", "_key")

    def __init__(self, num, den=None, _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        num = _strip(num)
        den = _DEN_ONE if den is None else _strip(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            self.num = {}
            self.den = _DEN_ONE
            return
        ld = min(den)
        if ld:
            num = {e - ld: c for e, c in num.items()}
            den = {e - ld: c for e, c in den.items()}
        k = _den_exponent(den)
        if k is None or not _coprime_to_den_power(num, k):
            ln = min(num)
            nd = _dense(num, ln, max(num))
            dd = _dense(den, 0, max(den))
            g = _poly_gcd(nd, dd)
            if len(g) > 1:
                nd, _ = _poly_divmod(nd, g)
                dd, _ = _poly_divmod(dd, g)
            lead = dd[-1]
            if lead != 1:
                lead = Fraction(lead)
                nd = [c / lead for c in nd]
                dd = [c / lead for c in dd]
            num = {e + ln: c for e, c in enumerate(nd) if c}
            den = {e: c for e, c in enumerate(dd) if c}
        self.num = num
        self.den = den

    def key(self) -> tuple:
        """The canonical numerator and denominator as a hashable tuple of
        (exponent, numerator, denominator) triples, kept on the object."""
        try:
            return self._key
        except AttributeError:
            self._key = tuple(tuple((e, c.numerator, c.denominator) for e, c in sorted(d.items()))
                              for d in (self.num, self.den))
            return self._key

    # constructors ----------------------------------------------------------

    @staticmethod
    def zero():
        return _QR_ZERO

    @staticmethod
    def one():
        return _QR_ONE

    @staticmethod
    def integer(n):
        return QRat({0: n})

    @staticmethod
    def q_pow(k):
        return QRat({k: 1}, _DEN_ONE, _canonical=True) if k else _QR_ONE

    # predicates / comparisons ------------------------------------------------

    def is_zero(self):
        return not self.num

    __bool__ = _nonzero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QRat.integer(other)
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"QRat({qrat_str(self)})"

    # arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QRat):
            return other
        if isinstance(other, (int, Fraction)):
            return QRat.integer(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        i, j = _den_exponent(self.den), _den_exponent(o.den)
        if i is not None and j is not None:
            return _pbw_coefficient(*_over_common_power(self.num, i, o.num, j))
        return QRat(_plus(_conv(self.num, o.den), _conv(o.num, self.den)),
                    _conv(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return QRat({e: -c for e, c in self.num.items()}, self.den, _canonical=True)

    __sub__ = _sub
    __rsub__ = _rsub

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return _QR_ZERO
        # scaling by a Laurent monomial cannot disturb coprimality with the
        # denominator (its constant term is nonzero), so skip the gcd
        if o.den == _DEN_ONE and len(o.num) == 1:
            (e, c), = o.num.items()
            return QRat({ke + e: kc * c for ke, kc in self.num.items()},
                        self.den, _canonical=True)
        if self.den == _DEN_ONE and len(self.num) == 1:
            (e, c), = self.num.items()
            return QRat({ke + e: kc * c for ke, kc in o.num.items()},
                        o.den, _canonical=True)
        i, j = _den_exponent(self.den), _den_exponent(o.den)
        if i is not None and j is not None:
            return _pbw_coefficient(_conv(self.num, o.num), i + j)
        return QRat(_conv(self.num, o.num), _conv(self.den, o.den))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return QRat(dict(self.den), dict(self.num))

    __truediv__ = _truediv
    __rtruediv__ = _rtruediv

    def subs_q(self, value):
        """Evaluate at a concrete scalar q-value (any field element)."""
        num = _eval_laurent(self.num, value)
        den = _eval_laurent(self.den, value)
        return num / den


def _conv(a, b):
    # product of Laurent polynomials; integer coefficients stay integers
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return _strip(out)


def _plus(a, b):
    # sum of Laurent polynomials, dropping the coefficients that cancel
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _strip(out)


@lru_cache(maxsize=None)
def _den_power(k):
    # (q^2 - 1)^k = sum_i C(k, i) (-1)^(k - i) q^2i
    return {2 * i: comb(k, i) * (-1) ** (k - i) for i in range(k + 1)}


def _den_exponent(den):
    """k when den is (q^2 - 1)^k, else None; (q^2 - 1)^k has k + 1 terms
    and leading coefficient 1."""
    k = len(den) - 1
    return k if den.get(2 * k) == 1 and den == _den_power(k) else None


def _over_common_power(a, i, b, j):
    """a / (q^2 - 1)^i + b / (q^2 - 1)^j as (n, k) with n / (q^2 - 1)^k,
    k = max(i, j): the numerator of the lower power is lifted."""
    if i < j:
        a = _conv(a, _den_power(j - i))
    elif j < i:
        b = _conv(b, _den_power(i - j))
    return _plus(a, b), max(i, j)


def _coprime_to_den_power(n, k):
    """True when the Laurent polynomial n is coprime to (q^2 - 1)^k: k = 0,
    or n(1) != 0 and n(-1) != 0, since +-1 are the only roots of
    (q^2 - 1)^k and q is a unit."""
    return not k or (sum(n.values()) != 0
                     and sum(v if e % 2 == 0 else -v for e, v in n.items()) != 0)


def _pbw_coefficient(n, k):
    """QRat n / (q^2 - 1)^k for a Laurent polynomial n, built canonical when
    the pair is coprime and reduced by the constructor otherwise."""
    return QRat(n, _den_power(k), _canonical=_coprime_to_den_power(n, k))


def _eval_laurent(d, value):
    # summed by ascending exponent, so equal dicts give equal floats whatever
    # order their terms were inserted in
    acc = None
    for e in sorted(d):
        c = d[e]
        term = (c.numerator * value ** e) / c.denominator if e >= 0 \
            else (c.numerator * (1 / value) ** (-e)) / c.denominator
        acc = term if acc is None else acc + term
    return acc if acc is not None else 0 * value


_QR_ZERO = QRat({}, _DEN_ONE, _canonical=True)
_QR_ONE = QRat({0: 1}, _DEN_ONE, _canonical=True)


# ---------------------------------------------------------------------------
# sparse sums over QRat, each key with a power of y
# ---------------------------------------------------------------------------


def _add_term(out, k, c):
    # out[k] += c, dropping a sum that cancels to zero
    s = out.get(k)
    if s is not None:
        c = s + c
        if c.is_zero():
            del out[k]
            return
    out[k] = c


class _SparseSum:
    """Finite sum as a map key -> nonzero QRat, canonical (keys in normal
    form, no zero values), so equality is dict equality.  A subclass fixes
    its keys: `_key` (normal form of one key), `_join` (key of a product of
    two keys) and `_UNIT` (key of 1).  Every key ends in a power of y, a
    central commuting variable, so y^e c is the term (..., e) -> c.  A QRat,
    int or Fraction is a scalar and multiplies from either side."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _canonical=False):
        if _canonical:
            self.terms = terms
            return
        out = {}
        for k, c in (terms or {}).items():
            c = self._coeff(c)
            if not c.is_zero():
                _add_term(out, self._key(k), c)
        self.terms = out

    @staticmethod
    def _coeff(c):
        # c as a QRat, or None when it is no scalar
        if isinstance(c, QRat):
            return c
        return QRat.integer(c) if isinstance(c, (int, Fraction)) else None

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        c = self._coeff(other)
        return None if c is None else self.scalar(c)

    @classmethod
    def zero(cls):
        return cls({}, _canonical=True)

    @classmethod
    def one(cls):
        return cls({cls._UNIT: _QR_ONE}, _canonical=True)

    @classmethod
    def scalar(cls, c):
        return cls({cls._UNIT: c})

    def is_zero(self):
        return not self.terms

    __bool__ = _nonzero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            _add_term(out, k, c)
        return type(self)(out, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()}, _canonical=True)

    __sub__ = _sub
    __rsub__ = _rsub

    def scale(self, c):
        c = self._coeff(c)
        if c.is_zero():
            return self.zero()
        # the ring has no zero divisors, so no product vanishes
        return type(self)({k: t * c for k, t in self.terms.items()}, _canonical=True)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self.__rmul__(other)
        join = self._join
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                _add_term(out, join(ka, kb), ca * cb)
        return type(self)(out, _canonical=True)

    def __rmul__(self, other):
        c = self._coeff(other)
        return NotImplemented if c is None else self.scale(c)


# ---------------------------------------------------------------------------
# words and polynomials
# ---------------------------------------------------------------------------


def cancel_word(word):
    """Remove adjacent Z z / z Z pairs until none remain (single stack pass)."""
    out = []
    for ch in word:
        if out and ((out[-1] == Z and ch == ZINV) or (out[-1] == ZINV and ch == Z)):
            out.pop()
        else:
            out.append(ch)
    if len(out) > MAX_WORD_LEN:
        raise WordLengthError(f"word length {len(out)} exceeds the cap {MAX_WORD_LEN}")
    return "".join(out)


class NcPoly(_SparseSum):
    """Map (word, y-power) -> QRat, canonical: no Z z adjacencies, no zero
    values.  A scalar in y is a polynomial on the empty word."""

    __slots__ = ()
    _UNIT = ("", 0)
    _key = staticmethod(lambda k: (cancel_word(k[0]), k[1]))
    _join = staticmethod(lambda a, b: (cancel_word(a[0] + b[0]), a[1] + b[1]))

    @staticmethod
    def word(w, coeff=None):
        if any(ch not in LETTERS for ch in w):
            raise ValueError(f"unknown letter in word {w!r}")
        return NcPoly({(w, 0): coeff if coeff is not None else _QR_ONE})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers of a general element")
        return _power(self, n, NcPoly.one())

    def __repr__(self):
        return f"NcPoly({format_expr(self)})"


class TensorPoly(_SparseSum):
    """Degree-2 tensor leg: map (word, word, y-power) -> QRat, multiplication
    acts legwise with the same Z z cancellation per leg."""

    __slots__ = ()
    _UNIT = ("", "", 0)
    _key = staticmethod(lambda k: (cancel_word(k[0]), cancel_word(k[1]), k[2]))
    _join = staticmethod(lambda a, b: (cancel_word(a[0] + b[0]), cancel_word(a[1] + b[1]),
                                       a[2] + b[2]))

    def __repr__(self):
        body = _grouped_str(self.terms, lambda w1, w2: f"({w1 or '1'})(x)({w2 or '1'})")
        return f"TensorPoly({body or '0'})"


def tensor(a: NcPoly, b: NcPoly) -> TensorPoly:
    out = {}
    for (wa, ea), ca in a.terms.items():
        for (wb, eb), cb in b.terms.items():
            _add_term(out, (wa, wb, ea + eb), ca * cb)
    return TensorPoly(out, _canonical=True)


# ---------------------------------------------------------------------------
# PBW normal form
# ---------------------------------------------------------------------------

_DELTA = QRat.q_pow(1) - QRat.q_pow(-1)           # q - q^-1


def _shift(t, s):
    return {e + s: v for e, v in t.items()} if s else t


def _add_laurent(out, key, n):
    # out[key] += n on Laurent polynomials, dropping a zero sum
    s = out.pop(key, None)
    if s is not None:
        n = _plus(s, n)
    if n:
        out[key] = n


def _times_kappa_a(t, b):
    """t times q^2 A_b = sum_{i<b} q^(2 - 2i), the numerator over q^2 - 1 of
    kappa A_b: a running sum of b terms with stride 2 over each parity class
    of t's exponents, so O(len(t) + b) where the full product is
    O(len(t) b).  The kappa B_b numerator -q^2 B_b gives this product
    negated and shifted by 2b - 2."""
    out = {}
    for par in (0, 1):
        es = [e for e in t if e % 2 == par]
        if not es:
            continue
        run = 0
        for e in range(max(es) + 2, min(es) + 2 - 2 * b, -2):
            run += t.get(e - 2, 0) - t.get(e + 2 * b - 2, 0)
            if run:
                out[e] = run
    return out


def _times_letter(state, ch):
    # state: (a, b, c) -> numerator of Y^a X^b Z^c, times one letter
    out = {}
    for (a, b, c), t in state.items():
        if ch == Z or ch == ZINV:
            out[a, b, c + (1 if ch == Z else -1)] = t
        elif ch == X:
            out[a, b + 1, c] = _shift(t, -2 * c)
        else:
            t = _shift(t, 2 * c)
            _add_laurent(out, (a + 1, b, c), _shift(t, 2 * b))
            if b:
                ta = _times_kappa_a(t, b)
                _add_laurent(out, (a, b - 1, c + 2), ta)
                _add_laurent(out, (a, b - 1, c), {e + 2 * b - 2: -v for e, v in ta.items()})
    return out


def check_expanded_word(w):
    """WordLengthError unless w fits the word cap with each J read as the
    two letters X z (J = (q X - q^-1 Y) Z^-1) and Z z pairs cancelled."""
    cancel_word(w.replace(J, X + ZINV))


def _word_terms(w):
    """Normal form of one word: normal word -> (n, k), its coefficient being
    n / (q^2 - 1)^k with n an integer Laurent polynomial and k the X Y pairs
    the word lost."""
    check_expanded_word(w)
    state = {(0, 0, 0): {0: 1}}
    for ch in w:
        if ch == J:
            nxt = {key: _shift(n, 1) for key, n in _times_letter(state, X).items()}
            for key, n in _times_letter(state, Y).items():
                _add_laurent(nxt, key, {e - 1: -v for e, v in n.items()})
            state = _times_letter(nxt, ZINV)
        else:
            state = _times_letter(state, ch)
    nxy = len(w) - w.count(Z) - w.count(ZINV)
    return {Y * a + X * b + (Z * e if e > 0 else ZINV * -e): (n, (nxy - a - b) // 2)
            for (a, b, e), n in state.items()}


def pbw_normal_form(p: NcPoly) -> NcPoly:
    """Normal form on the ordered basis Y^a X^b Z^c (c signed) under
        Z X -> q^-2 X Z,   Z Y -> q^2 Y Z,
        z X -> q^2  X z,   z Y -> q^-2 Y z,
        X Y -> q^2 Y X + kappa (Z^2 - 1),   kappa = q/(q - q^-1).
    Each word is multiplied onto 1 from the right, one letter at a time, by
    closed forms of the rules: Y^a X^b Z^c times Z^+-1 is Y^a X^b Z^(c+-1),
    times X is q^-2c Y^a X^(b+1) Z^c, and times Y is
        q^2c [q^2b Y^(a+1) X^b Z^c + kappa A_b Y^a X^(b-1) Z^(c+2)
              - kappa B_b Y^a X^(b-1) Z^c],
    A_b = sum_{i<b} q^-2i, B_b = sum_{i<b} q^2i, by induction on b from
    X^b Y = q^2b Y X^b + kappa X^(b-1) (A_b Z^2 - B_b).  No unordered word is
    built.  The rules terminate and their overlaps Z X Y, z X Y resolve, so
    by Bergman's diamond lemma every rewriting order ends in one normal
    form, and this is it.  J is multiplied in as q X Z^-1 - q^-1 Y Z^-1,
    factor by factor, so J^k never becomes 2^k words.

    kappa A_b, kappa B_b are the only coefficients that are not monomials,
    so each output word of one input word carries n / (q^2 - 1)^k with n an
    integer Laurent polynomial (`_word_terms`).  Times an input coefficient
    m / (q^2 - 1)^j this is m n / (q^2 - 1)^(j+k), and these numerators are
    summed per output word and y-power, across all input words, over the
    largest power met.  One QRat is built per output coefficient, by
    `_pbw_coefficient`: no gcd when the sum is nonzero at q = +-1, the only
    roots of (q^2 - 1)^k.  For one word that holds for every term (at
    q = +-1 all paths to one term carry the same sign, since the term fixes
    how many kappa A_b, kappa B_b and J choices they took), so only a sum
    that cancels across input words is reduced.  An input coefficient with
    another denominator is summed apart, per denominator, and reduced by the
    generic QRat constructor."""
    acc = {}   # (word, y-power, other denominator or None) -> (numerator, k)
    words = {}  # a word met with several powers of y is reduced once
    for (w, ey), r in p.terms.items():
        j = _den_exponent(r.den)
        other = None if j is not None else tuple(sorted(r.den.items()))
        terms = words.get(w)
        if terms is None:
            terms = words[w] = _word_terms(w)
        for v, (n, k) in terms.items():
            if r.num != _DEN_ONE:   # a numerator other than 1
                n = _conv(n, r.num)
            key, k = (v, ey, other), k + (j or 0)
            s = acc.get(key)
            acc[key] = (n, k) if s is None else _over_common_power(*s, n, k)
    out = {}
    for (v, ey, other), (n, k) in acc.items():
        r = (_pbw_coefficient(n, k) if other is None
             else QRat(n, _conv(dict(other), _den_power(k))))
        if r:
            _add_term(out, (v, ey), r)
    return NcPoly(out, _canonical=True)


@lru_cache(maxsize=None)
def j_expansion() -> NcPoly:
    """J written in the original generators: q X Z^-1 - q^-1 Y Z^-1."""
    return NcPoly({("Xz", 0): QRat.q_pow(1), ("Yz", 0): -QRat.q_pow(-1)})


def substitute_j(p: NcPoly) -> NcPoly:
    """Replace every J letter by its expansion and canonicalize."""
    out = NcPoly.zero()
    jp = j_expansion()
    for (w, e), c in p.terms.items():
        parts = w.split(J)
        acc = NcPoly({(parts[0], e): c})
        for part in parts[1:]:
            acc = acc * jp * NcPoly.word(part)
        out = out + acc
    return out


# ---------------------------------------------------------------------------
# the cubic ladder identity, expanded in y = q^x
# ---------------------------------------------------------------------------


def bracket_shift(k: int) -> NcPoly:
    """[x+k]_q rendered in y, as a scalar: (y q^k - y^-1 q^-k)/(q - q^-1)."""
    return NcPoly({("", 1): QRat.q_pow(k) / _DELTA, ("", -1): -(QRat.q_pow(-k) / _DELTA)})


def _two_bracket_sq() -> QRat:
    t = QRat.q_pow(1) + QRat.q_pow(-1)
    return t * t


@lru_cache(maxsize=None)
def identity_sides():
    """LHS and RHS of the cubic ladder identity over the letters Z, J, with
    the spectral parameter carried by y (built once, on first use)."""
    a2, a0, am2 = bracket_shift(2), bracket_shift(0), bracket_shift(-2)
    Zp, Jp = NcPoly.word(Z), NcPoly.word(J)
    lhs = Zp * (Jp - a2) * (Jp - a0) * (Jp - am2) * Zp
    rhs = ((Jp - a0) * Zp * (Jp - a0) * Zp - _two_bracket_sq()) * (Jp - a0)
    return lhs, rhs


def y_coefficients(p: NcPoly) -> dict[int, NcPoly]:
    """The y-free polynomials p_k with p = sum_k y^k p_k (nonzero ones only)."""
    out: dict[int, dict] = {}
    for (w, ey), c in p.terms.items():
        out.setdefault(ey, {})[w, 0] = c
    return {ey: NcPoly(bucket, _canonical=True) for ey, bucket in out.items()}


def identity_coefficients() -> dict[int, NcPoly]:
    """LHS - RHS of the cubic ladder identity by powers of y, in a fresh dict:
    the y^(+-3) contributions cancel among themselves, and the survivors are
    the five coefficients c_-2 .. c_2 (y-free noncommutative polynomials)."""
    return dict(_identity_coefficients())


@lru_cache(maxsize=None)
def _identity_coefficients() -> dict[int, NcPoly]:
    lhs, rhs = identity_sides()
    coeffs = y_coefficients(lhs - rhs)
    stray = [ey for ey in coeffs if abs(ey) > 2]
    if stray:
        raise AssertionError(f"unexpected y-powers survive the expansion: {stray}")
    for k in range(-2, 3):
        coeffs.setdefault(k, NcPoly.zero())
    return coeffs


@lru_cache(maxsize=None)
def identity_lhs_coefficients() -> dict[int, NcPoly]:
    """The LHS of the cubic ladder identity by powers of y, built once per
    process and shared by every caller, which only reads it."""
    return y_coefficients(identity_sides()[0])


@lru_cache(maxsize=None)
def relation_differences(which: str) -> dict[str, NcPoly]:
    """LHS - RHS of each relation in a set, keyed by its check name; built
    once per set."""
    return {name: lhs - rhs for name, (lhs, rhs) in relation_sides(which).items()}


@lru_cache(maxsize=None)
def relation_sides(which: str) -> dict[str, tuple[NcPoly, NcPoly]]:
    """(LHS, RHS) of each relation in a set, keyed by its check name.
    "defining": Z Z^-1 = 1 and Z^-1 Z = 1, as the raw words Zz and zZ
    against 1 (`NcPoly.word` would cancel them on contact), then the
    relations among X, Y, Z.  "zj": the two J-Z relations.  Built once per
    set."""
    if which == "defining":
        inv_delta = _DELTA.inverse()
        return {
            **{name: (NcPoly({(w, 0): QRat.one()}, _canonical=True), NcPoly.one())
               for name, w in (("Z Zi = 1", "Zz"), ("Zi Z = 1", "zZ"))},
            "Z X = q^-2 X Z": (NcPoly.word("ZX"), NcPoly.word("XZ", QRat.q_pow(-2))),
            "Z Y = q^2 Y Z": (NcPoly.word("ZY"), NcPoly.word("YZ", QRat.q_pow(2))),
            "q^-1 X Y - q Y X = (Z^2 - 1)/(q - q^-1)":
                (NcPoly.word("XY", QRat.q_pow(-1)) - NcPoly.word("YX", QRat.q_pow(1)),
                 NcPoly.word("ZZ", inv_delta) - NcPoly.scalar(inv_delta)),
        }
    if which == "zj":
        mid = QRat.q_pow(2) + QRat.q_pow(-2)
        front = QRat.q_pow(2) + QRat.one() + QRat.q_pow(-2)
        t2 = _two_bracket_sq()
        return {
            "Z^2 J - (q^2+q^-2) Z J Z + J Z^2 = 0":
                (NcPoly.word("ZZJ") - NcPoly.word("ZJZ", mid) + NcPoly.word("JZZ"),
                 NcPoly.zero()),
            "(q^2+1+q^-2) Z J^2 Z - J Z J Z - J Z^2 J - Z J Z J = [2]^2 (Z^2 - 1)":
                (NcPoly.word("ZJJZ", front) - NcPoly.word("JZJZ") - NcPoly.word("JZZJ")
                 - NcPoly.word("ZJZJ"),
                 NcPoly.word("ZZ", t2) - NcPoly.scalar(t2)),
        }
    raise ValueError(f"unknown relation set {which!r}")


def identity_contracts(coeffs: dict[int, NcPoly] | None = None) -> dict[str, NcPoly]:
    """Residuals of the displayed coefficient identities.  All residuals are
    zero exactly when the machine expansion reproduces them:

        (q-q^-1)^2 c_(+-2) = -J Z^2 + (q^2+q^-2) Z J Z - Z^2 J
        (q-q^-1)   c_-1    = -(q-q^-1) c_1 = the degree-two relation combination
        (q-q^-1)^2 c_0     = 2 (J Z^2 - (q^2+q^-2) Z J Z + Z^2 J)
                             + (q-q^-1)^2 (Z J^3 Z - [2]^2 Z J Z - J Z J Z J + [2]^2 J)

    plus the y = 1 cross-check: sum_k c_k equals the x = 0 specialization.
    The right-hand sides are -R1, R2 and 2 R1 + (q-q^-1)^2 V in terms of the
    J-Z relations R1, R2 (`relation_differences("zj")`) and V (`lemma_v`)."""
    c = identity_coefficients() if coeffs is None else coeffs
    d1 = _DELTA
    d2 = d1 * d1
    r1, r2 = relation_differences("zj").values()
    v = lemma_v()

    res = {
        "c2": c[2] * d2 + r1,
        "c-2": c[-2] * d2 + r1,
        "c-1": c[-1] * d1 - r2,
        "c1": c[1] * d1 + r2,
        "c0": c[0] * d2 - (r1 * 2 + v * d2),
    }
    total = NcPoly.zero()
    for k in range(-2, 3):
        total = total + c[k]
    res["y=1"] = total - v
    return res


# ---------------------------------------------------------------------------
# the x = 0 case: anticommutation certificate
# ---------------------------------------------------------------------------


def lemma_v() -> NcPoly:
    """V = Z J^3 Z - [2]^2 Z J Z + [2]^2 J - J Z J Z J; the x = 0 case of the
    cubic identity is exactly V = 0."""
    t2 = _two_bracket_sq()
    return (NcPoly.word("ZJJJZ") - NcPoly.word("ZJZ", t2)
            + NcPoly.word(J, t2) - NcPoly.word("JZJZJ"))


@dataclass
class LemmaReport:
    ok: bool
    residual: NcPoly
    pieces: dict = field(default_factory=dict)
    consequence_ok: bool | None = None


def lemma_check(v: NcPoly | None = None, consequence_depth: int = 5) -> LemmaReport:
    """Certify Z V + V Z = R2 * J Z + Z J * R2 + R1 * J^2 Z + Z J^2 * R1 in
    the free algebra, where R1 and R2 are the two J-Z relation combinations
    (each reduces to zero under PBW, so Z V + V Z lies in the defining ideal).
    Then confirm the consequence Z^k V = (-1)^k V Z^k for k up to
    `consequence_depth`, both via the telescoped certificate and by PBW
    reduction."""
    v = lemma_v() if v is None else v
    Zp = NcPoly.word(Z)
    s = Zp * v + v * Zp
    r1, r2 = relation_differences("zj").values()
    decomposition = (r2 * NcPoly.word("JZ") + NcPoly.word("ZJ") * r2
                     + r1 * NcPoly.word("JJZ") + NcPoly.word("ZJJ") * r1)
    residual = s - decomposition
    ok = residual.is_zero()

    consequence_ok = None
    if ok and consequence_depth > 0:
        consequence_ok = True
        for k in range(1, consequence_depth + 1):
            zk = NcPoly.word(Z * k)
            lhs = zk * v - v * zk * ((-1) ** k)
            rhs = NcPoly.zero()
            for j in range(k):
                rhs = rhs + NcPoly.word(Z * (k - 1 - j)) * s * NcPoly.word(Z * j) * ((-1) ** j)
            if lhs != rhs or not pbw_normal_form(lhs).is_zero():
                consequence_ok = False
                break
    return LemmaReport(ok=ok, residual=residual,
                       pieces={"R1": r1, "R2": r2, "ZV+VZ": s},
                       consequence_ok=consequence_ok)


# ---------------------------------------------------------------------------
# Hopf structure on generators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hopf_tables():
    """Delta, S and eps on the letters X, Y, Z, Z^-1."""
    one = QRat.one()
    return {
        "coproduct": {
            X: TensorPoly({("", X, 0): one, (X, Z, 0): one}),
            Y: TensorPoly({("", Y, 0): one, (Y, Z, 0): one}),
            Z: TensorPoly({(Z, Z, 0): one}),
            ZINV: TensorPoly({(ZINV, ZINV, 0): one}),
        },
        "antipode": {
            X: NcPoly({("Xz", 0): -one}),
            Y: NcPoly({("Yz", 0): -one}),
            Z: NcPoly.word(ZINV),
            ZINV: NcPoly.word(Z),
        },
        "counit": {X: NcPoly.zero(), Y: NcPoly.zero(), Z: NcPoly.one(), ZINV: NcPoly.one()},
    }


def _extend(p: NcPoly, which: str, reverse: bool = False):
    """The extension of the letter table `which` of `_hopf_tables` to p:
    multiplicative, or antimultiplicative with reverse=True, and y to y.
    J-free input."""
    table = _hopf_tables()[which]
    kind = type(table[Z])
    out = kind.zero()
    for (w, e), c in p.terms.items():
        if J in w:
            raise ValueError(f"substitute_j before taking the {which}")
        acc = kind({kind._UNIT[:-1] + (e,): c}, _canonical=True)
        for ch in reversed(w) if reverse else w:
            acc = acc * table[ch]
        out = out + acc
    return out


def coproduct(p: NcPoly) -> TensorPoly:
    """Multiplicative extension of Delta X = 1 (x) X + X (x) Z,
    Delta Y = 1 (x) Y + Y (x) Z, Delta Z = Z (x) Z, Delta y = y.  J-free
    input."""
    return _extend(p, "coproduct")


def antipode(p: NcPoly) -> NcPoly:
    """Antihomomorphic extension of S(X) = -X Z^-1, S(Y) = -Y Z^-1,
    S(Z) = Z^-1, S(y) = y.  J-free input."""
    return _extend(p, "antipode", reverse=True)


def counit(p: NcPoly) -> NcPoly:
    """eps(X) = eps(Y) = 0, eps(Z) = eps(Z^-1) = 1, eps(y) = y,
    multiplicative; the value is a scalar in y.  J-free input."""
    return _extend(p, "counit")


def delta_j(j: NcPoly | None = None) -> TensorPoly:
    """Delta J = Z^-1 (x) J + J (x) 1, with j for J (the letter J by
    default; `hopf_symbolic_check` puts in its expansion)."""
    j = NcPoly.word(J) if j is None else j
    return tensor(NcPoly.word(ZINV), j) + tensor(j, NcPoly.one())


@dataclass
class HopfReport:
    name: str
    ok: bool
    residual: object
    note: str = ""


HOPF_CHECKS = ("deltaJ", "antipodeJ", "counitJ", "counit_axiom",
               "zj_relations", "xy_recovery")


def hopf_symbolic_check(which: str) -> HopfReport:
    """Symbolic verification of the J-side Hopf data and the two-way
    generator translations; see HOPF_CHECKS for the available names."""
    jx = substitute_j(NcPoly.word(J))

    if which == "deltaJ":
        residual = coproduct(jx) - delta_j(jx)
        return HopfReport(which, residual.is_zero(), residual,
                          "Delta J = Z^-1 (x) J + J (x) 1")

    if which == "antipodeJ":
        lhs = antipode(jx)
        rhs = substitute_j(-NcPoly.word("ZJ"))
        residual = lhs - rhs
        return HopfReport(which, residual.is_zero(), residual, "S(J) = -Z J")

    if which == "counitJ":
        val = counit(jx)
        return HopfReport(which, val.is_zero(), val,
                          "eps(J) = 0: forced by eps(X) = eps(Y) = 0, and by the "
                          "counit axiom applied to Delta J; a value of 1 for eps(J) "
                          "is inconsistent with both")

    if which == "counit_axiom":
        residual = NcPoly.zero()
        ok = True
        for g in (X, Y, Z, J):
            gx = substitute_j(NcPoly.word(g))
            applied = NcPoly.zero()
            for (w1, w2, e), c in coproduct(gx).terms.items():
                applied = applied + counit(NcPoly({(w1, e): c}, _canonical=True)) * NcPoly.word(w2)
            r = applied - gx
            ok = ok and r.is_zero()
            residual = residual + r
        return HopfReport(which, ok, residual, "(eps (x) id) Delta g = g on generators")

    if which == "zj_relations":
        r1, r2 = (pbw_normal_form(r) for r in relation_differences("zj").values())
        residual = r1 + r2
        return HopfReport(which, r1.is_zero() and r2.is_zero(), residual,
                          "both J-Z relations reduce to 0 under PBW")

    if which == "xy_recovery":
        xhat, yhat = xy_recovery()
        rx = pbw_normal_form(xhat) - NcPoly.word(X)
        ry = pbw_normal_form(yhat) - NcPoly.word(Y)
        residual = rx + ry
        return HopfReport(which, rx.is_zero() and ry.is_zero(), residual,
                          "X and Y recovered from J and Z")

    raise ValueError(f"unknown check {which!r}; expected one of {HOPF_CHECKS}")


def xy_recovery() -> tuple[NcPoly, NcPoly]:
    """X and Y written in J and Z: (q J Z - q^-1 Z J)/(q^2 - q^-2) and
    (q^-1 J Z - q Z J)/(q^2 - q^-2)."""
    scale = (QRat.q_pow(2) - QRat.q_pow(-2)).inverse()
    xhat = (NcPoly.word("JZ", QRat.q_pow(1) * scale)
            - NcPoly.word("ZJ", QRat.q_pow(-1) * scale))
    yhat = (NcPoly.word("JZ", QRat.q_pow(-1) * scale)
            - NcPoly.word("ZJ", QRat.q_pow(1) * scale))
    return xhat, yhat


def defining_relations() -> dict[str, NcPoly]:
    """LHS - RHS of each defining relation, Z Z^-1 = Z^-1 Z = 1 first; each
    must PBW-reduce to zero."""
    return dict(relation_differences("defining"))


# ---------------------------------------------------------------------------
# text grammar (print / parse, exact round trip)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<int>\d+)|(?P<op>[-+*/^()]))")
_PRINT_NAME = {Z: "Z", ZINV: "Zi", X: "X", Y: "Y", J: "J"}
_PARSE_NAME = {"X": X, "Y": Y, "Z": Z, "Zi": ZINV, "J": J}


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _poly_str(d: dict[int, Fraction]) -> str:
    if not d:
        return "0"
    parts = []
    for e in sorted(d, reverse=True):
        c = d[e]
        if e == 0:
            body = _frac_str(abs(c))
        else:
            base = "q" if e == 1 else f"q^{e}"
            body = base if abs(c) == 1 else f"{_frac_str(abs(c))}*{base}"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def qrat_str(r: QRat) -> str:
    if r.is_zero():
        return "0"
    if r.den == _DEN_ONE:
        return _poly_str(r.num)
    return f"({_poly_str(r.num)})/({_poly_str(r.den)})"


def _y_group_str(group: dict[int, QRat]) -> str:
    # the coefficient of one word, {y-power: QRat}, highest power first
    parts = []
    for ey in sorted(group, reverse=True):
        rs = qrat_str(group[ey])
        if ey == 0:
            parts.append(rs)
            continue
        ys = "y" if ey == 1 else f"y^{ey}"
        if rs == "1":
            parts.append(ys)
        elif rs == "-1":
            parts.append(f"-{ys}")
        else:
            rs_wrapped = f"({rs})" if (" " in rs and not rs.startswith("(")) else rs
            parts.append(f"{rs_wrapped}*{ys}")
    return " + ".join(parts)


def _grouped_str(terms: dict, word_str, sort_key=None) -> str:
    """Terms {(*words, y-power): QRat} grouped by their words, one chunk per
    group in sort_key order: the {y-power: QRat} group times
    word_str(*words), or the group alone where that prints empty."""
    groups = {}
    for key, c in terms.items():
        groups.setdefault(key[:-1], {})[key[-1]] = c
    chunks = []
    for w in sorted(groups, key=sort_key):
        ws = word_str(*w)
        cs = _y_group_str(groups[w])
        multi = len(groups[w]) > 1 or (" " in cs and not cs.startswith("("))
        if not ws:
            chunks.append(f"({cs})" if multi else cs)
        elif cs == "1":
            chunks.append(ws)
        elif cs == "-1":
            chunks.append(f"-{ws}")
        else:
            chunks.append((f"({cs})" if multi else cs) + f"*{ws}")
    return " + ".join(chunks)


def format_expr(p: NcPoly) -> str:
    """Deterministic text form in the CLI grammar; parse_expr inverts it."""
    if p.is_zero():
        return "0"
    return _grouped_str(p.terms, lambda w: "*".join(_PRINT_NAME[ch] for ch in w),
                        lambda w: (len(w[0]), w[0]))


class _Parser:
    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
                break
            if m.group("name"):
                self.tokens.append(("name", m.group("name")))
            elif m.group("int"):
                self.tokens.append(("int", int(m.group("int"))))
            else:
                self.tokens.append(("op", m.group("op")))
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parse(self) -> NcPoly:
        out = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input at token {self.peek()[1]!r}")
        return out

    def expr(self) -> NcPoly:
        acc = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> NcPoly:
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.pos += 1
                rhs = self.factor()
                if val == "*":
                    acc = acc * rhs
                else:
                    acc = acc * _scalar_inverse(rhs)
            else:
                return acc

    def factor(self) -> NcPoly:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.pos += 1
            return -self.factor()
        return self.power()

    def power(self) -> NcPoly:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.pos += 1
            k = self.signed_int()
            return _poly_power(base, k)
        return base

    def signed_int(self) -> int:
        kind, val = self.take()
        if kind == "op" and val == "-":
            kind, val = self.take()
            if kind != "int":
                raise ParseError("expected integer exponent")
            return -val
        if kind != "int":
            raise ParseError("expected integer exponent")
        return val

    def atom(self) -> NcPoly:
        kind, val = self.take()
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "int":
            return NcPoly.scalar(val)
        if kind == "name":
            if val == "q":
                return NcPoly.scalar(QRat.q_pow(1))
            if val == "y":
                return NcPoly({("", 1): _QR_ONE}, _canonical=True)
            letter = _PARSE_NAME.get(val)
            if letter is None:
                raise ParseError(f"unknown identifier {val!r}")
            return NcPoly.word(letter)
        raise ParseError(f"unexpected token {val!r}")


def _is_scalar(p: NcPoly) -> bool:
    return not any(w for w, _ in p.terms)


def _scalar_inverse(p: NcPoly) -> NcPoly:
    """1/p for a scalar p = c y^e; no other scalar is invertible in
    Q(q)[y, y^-1]."""
    if not _is_scalar(p):
        raise ParseError("division is only defined by scalar coefficients")
    if not p.terms:
        raise ZeroDivisionError("division by zero in Q(q)[y,y^-1]")
    if len(p.terms) != 1:
        raise ZeroDivisionError("only monomial coefficients are invertible in Q(q)[y,y^-1]")
    ((_, e), c), = p.terms.items()
    return NcPoly({("", -e): c.inverse()}, _canonical=True)


def _poly_power(base: NcPoly, k: int) -> NcPoly:
    if k >= 0:
        return base ** k
    if _is_scalar(base):
        return _scalar_inverse(base) ** (-k)
    if base == NcPoly.word(Z):
        return NcPoly.word(ZINV * (-k))
    if base == NcPoly.word(ZINV):
        return NcPoly.word(Z * (-k))
    raise ParseError("negative powers are only defined for scalars and Z, Zi")


def parse_expr(text: str) -> NcPoly:
    """Parse the CLI expression grammar: identifiers X, Y, Z, Zi, J, the
    formal q (and y), integer and num/den rational coefficients, q^k powers,
    operators + - * / ( )."""
    return _Parser(text).parse()
