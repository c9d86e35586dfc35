"""Matrix models of the two irreducible families at an odd root of unity.

Basis convention: v_j is the j-th standard basis column (indices 0..d-1) and
matrices act on the left, so the family formulas become column operations.
Exact matrices are nested lists of CycloNum/GaussCyclo entries; the floating
backend uses numpy complex128 arrays.  The generators are sparse (X and Y
bidiagonal, Z and Z^-1 diagonal, J tridiagonal), so the exact kernels skip
structural zeros: products run row by row over the nonzero entries only, and
exact comparisons test entrywise equality before forming any difference.
Every constructor verifies the defining relations before returning (exactly
on the exact backend).

The relations themselves are not typed in here: they live once, as
noncommutative polynomials in `ncpoly`, and `evaluate` maps them onto the
matrices of a representation on either backend.  `evaluate` is the only
producer of exact matrices.  Whether a polynomial vanishes on an exact
representation is asked first of `certified_zeros`, which decides it from
images modulo split primes (the certificate is in `scalar`), keeping the
images of the generators on the representation and those of words only
for one call; whatever it does not certify is evaluated, so residuals
and supports come from the CycloNum matrices as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import mul

import numpy as np

from .ncpoly import relation_differences, relation_sides, xy_recovery
from .scalar import (ABS_TOL, INT64_SUM_TERMS, REL_TOL, CycloNum, GaussCyclo,
                     RootContext, gauss_i, is_exact, l1_content, q_number, q_power,
                     scalar_from_json, scalar_to_json, split_images, to_complex)

# Beyond this many split primes the bound is left undecided and the
# CycloNum evaluation decides.
MAX_SPLIT_PRIMES = 6
# Below this dimension the CycloNum evaluation costs less than the images'
# fixed cost of about 0.4 ms, so zeros are decided by it (measured on the
# first family, Q = 3..31: the identity's C_k break even at d = 2, the
# defining relations at d = 4 to 6).
SPLIT_MIN_DIM = 3

# ---------------------------------------------------------------------------
# exact matrix helpers (nested lists over CycloNum / GaussCyclo)
# ---------------------------------------------------------------------------


def ex_zeros(ctx: RootContext, n: int, m: int | None = None):
    z = ctx.zero()
    m = n if m is None else m
    return [[z] * m for _ in range(n)]


def ex_eye(ctx: RootContext, n: int):
    out = ex_zeros(ctx, n)
    one = ctx.one()
    for i in range(n):
        out[i][i] = one
    return out


def ex_mul(A, B):
    """A B by rows (Gustavson): each nonzero a = A[i][t] meets only the
    nonzero entries of row t of B, so structural zeros cost nothing."""
    zero = A[0][0].ctx.zero()
    m = len(B[0])
    rows_b = [[(j, b) for j, b in enumerate(row) if b is not zero and not b.is_zero()]
              for row in B]
    out = []
    for row_a in A:
        acc = {}
        for t, a in enumerate(row_a):
            if a is zero or a.is_zero():
                continue
            for j, b in rows_b[t]:
                p = a * b
                o = acc.get(j)
                acc[j] = p if o is None else o + p
        row = [zero] * m
        for j, v in acc.items():
            row[j] = v
        out.append(row)
    return out


def ex_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def ex_sub(A, B):
    zero = A[0][0].ctx.zero()
    return [[a if b is zero or b.is_zero() else a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def ex_scale(A, s):
    zero = A[0][0].ctx.zero()
    if (isinstance(s, CycloNum) and s.is_zero()) or (isinstance(s, GaussCyclo) and s.is_zero()):
        return ex_zeros(zero.ctx, len(A), len(A[0]))
    return [[a if a is zero or a.is_zero() else s * a for a in row] for row in A]


def ex_is_zero(A) -> bool:
    return all(a.is_zero() for row in A for a in row)


def ex_kron(A, B):
    nb, mb = len(B), len(B[0])
    zero = A[0][0].ctx.zero()
    out = []
    for i in range(len(A)):
        for ib in range(nb):
            row = []
            for j in range(len(A[0])):
                a = A[i][j]
                if a.is_zero():
                    row.extend([zero] * mb)
                else:
                    row.extend([a * b if not b.is_zero() else zero for b in B[ib]])
            out.append(row)
    return out


def ex_pow(A, n: int, ctx: RootContext):
    """A^n by repeated squaring: at most 2 log2(n) products."""
    out, base = None, A
    while n:
        if n & 1:
            out = base if out is None else ex_mul(out, base)
        n >>= 1
        if n:
            base = ex_mul(base, base)
    if out is None:
        return ex_eye(ctx, len(A))
    return [list(row) for row in out] if out is A else out


def ex_lincomb(terms, ctx: RootContext, d: int):
    """sum of s * M over the (s, M) pairs of d x d matrices, skipping zero
    scalars and zero entries."""
    one, zero = ctx.one(), ctx.zero()
    out = ex_zeros(ctx, d)
    for s, M in terms:
        if s.is_zero():
            continue
        unit = s == one
        for row_o, row_m in zip(out, M):
            for j, a in enumerate(row_m):
                if a is not zero and not a.is_zero():
                    p = a if unit else s * a
                    o = row_o[j]
                    row_o[j] = p if o is zero or o.is_zero() else o + p
    return out


def ex_to_complex(A) -> np.ndarray:
    zero = A[0][0].ctx.zero()
    return np.array([[0j if a is zero or a.is_zero() else to_complex(a) for a in row]
                     for row in A], dtype=complex)


def ex_residual(A) -> float:
    """0.0 when the exact matrix is exactly zero, else its largest embedded
    entry magnitude (diagnostic for a failed exact check)."""
    if ex_is_zero(A):
        return 0.0
    return float(np.max(np.abs(ex_to_complex(A))))


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


class Representation:
    """Matrices of X, Y, Z, Z^-1 for one member of a family, plus provenance."""

    __slots__ = ("ctx", "dim", "family", "params", "backend",
                 "X", "Y", "Z", "Zinv", "_cache")

    def __init__(self, ctx, dim, family, params, backend, X, Y, Z, Zinv):
        self.ctx = ctx
        self.dim = dim
        self.family = family
        self.params = params
        self.backend = backend
        self.X, self.Y, self.Z, self.Zinv = X, Y, Z, Zinv
        self._cache = {}

    def mats(self) -> dict:
        return {"X": self.X, "Y": self.Y, "Z": self.Z, "Zinv": self.Zinv}

    def complex_mats(self) -> dict:
        """The four generator matrices as numpy complex arrays (cached)."""
        got = self._cache.get("complex_mats")
        if got is None:
            if self.backend == "exact":
                got = {k: ex_to_complex(v) for k, v in self.mats().items()}
            else:
                got = {k: np.array(v, dtype=complex) for k, v in self.mats().items()}
            self._cache["complex_mats"] = got
        return got

    def __repr__(self):
        return (f"Representation(family={self.family!r}, dim={self.dim}, "
                f"P={self.ctx.P}, Q={self.ctx.Q}, backend={self.backend!r}, "
                f"params={self.params!r})")


def build_family1(ctx: RootContext, r: int, sign: int = 1) -> Representation:
    """(r+1)-dimensional representation:
        Z v_j = sign q^(r-2j) v_j,
        X v_j = -q^(r-2j-1) [r-j] v_(j+1),
        Y v_j = [j] v_(j-1).
    Exact backend."""
    if not 0 <= r <= ctx.Q - 1:
        raise ValueError(f"r must lie in 0..Q-1, got {r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d = r + 1
    Z = ex_zeros(ctx, d)
    Zinv = ex_zeros(ctx, d)
    Xm = ex_zeros(ctx, d)
    Ym = ex_zeros(ctx, d)
    for j in range(d):
        zj = q_power(ctx, r - 2 * j)
        if sign < 0:
            zj = -zj
        Z[j][j] = zj
        Zinv[j][j] = zj.inverse()
        if j + 1 < d:
            Xm[j + 1][j] = -(q_power(ctx, r - 2 * j - 1) * q_number(ctx, r - j))
        if j - 1 >= 0:
            Ym[j - 1][j] = q_number(ctx, j)
    rep = Representation(ctx, d, 1, {"r": r, "sign": sign}, "exact", Xm, Ym, Z, Zinv)
    _require_defining(rep)
    return rep


def build_family2(ctx: RootContext, lam, a, b, backend: str = "approx") -> Representation:
    """Q-dimensional cyclic representation:
        Z v_j = lam q^(2j) v_j,
        X v_j = -i q^(j-1) (a b - [j] (lam q^(j-1) - lam^-1 q^(1-j))/(q - q^-1)) v_(j-1),
                wrapping X v_0 = -i q^-1 a v_(Q-1),
        Y v_j = -i lam q^(j+1) v_(j+1),  wrapping Y v_(Q-1) = -i lam b v_0.
    Floating backend by default; pass backend="exact" with exact lam, a, b
    (CycloNum / GaussCyclo / rationals) to stay in Q(zeta_Q)(i)."""
    Q = ctx.Q
    if backend == "exact":
        lam, a, b = (GaussCyclo.from_scalar(v, ctx) for v in (lam, a, b))
        qp, qn = partial(q_power, ctx), partial(q_number, ctx)
        mi, zero = -gauss_i(ctx), ctx.zero()
        # one Galois-norm inverse per build, not one per column
        over_delta = partial(mul, (qp(1) - qp(-1)).inverse())
    elif backend == "approx":
        lam, a, b = (complex(to_complex(v)) for v in (lam, a, b))
        qp, mi, zero = partial(pow, ctx.q_complex), -1j, 0j
        delta = qp(1) - qp(-1)

        def qn(k):
            return to_complex(q_number(ctx, k))

        def over_delta(v):
            return v / delta
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if not lam:
        raise ValueError("lambda must be nonzero")
    Z, Zinv, Xm, Ym = ([[zero] * Q for _ in range(Q)] for _ in range(4))
    for j in range(Q):
        zj = lam * qp(2 * j)
        Z[j][j] = zj
        Zinv[j][j] = 1 / zj
        if j != 0:
            core = a * b - over_delta(qn(j) * (lam * qp(j - 1) - qp(1 - j) / lam))
            Xm[j - 1][j] = mi * qp(j - 1) * core
        if j != Q - 1:
            Ym[j + 1][j] = mi * lam * qp(j + 1)
    Xm[Q - 1][0] = mi * a / qp(1)
    Ym[0][Q - 1] = mi * lam * b
    if backend == "approx":
        Z, Zinv, Xm, Ym = (np.array(M, dtype=complex) for M in (Z, Zinv, Xm, Ym))
    rep = Representation(ctx, Q, 2, {"lambda": lam, "a": a, "b": b},
                         backend, Xm, Ym, Z, Zinv)
    _require_defining(rep)
    return rep


def _require_defining(rep):
    report = verify_relations(rep, "defining")
    if not report.ok:
        raise ArithmeticError(f"construction violates the defining relations: {report}")


# ---------------------------------------------------------------------------
# evaluating symbolic polynomials onto matrices
# ---------------------------------------------------------------------------

def _coefficient_key(c, exact: bool):
    """The key a y-free coefficient's values are cached under on the
    context: its canonical numerator and denominator."""
    if set(c.terms) - {0}:
        raise ValueError("only y-free polynomials can be evaluated onto matrices")
    return exact, c.terms[0].key()


def _coefficient(c, ctx: RootContext, exact: bool):
    """The y-free coefficient's value at q, cached on the context."""
    key = _coefficient_key(c, exact)
    got = ctx._subs_cache.get(key)
    if got is None:
        got = ctx._subs_cache[key] = c.terms[0].subs_q(q_power(ctx, 1) if exact
                                                       else ctx.q_complex)
    return got


def evaluate(polys, rep: Representation, exact: bool | None = None) -> list:
    """Matrices of y-free NcPolys over X, Y, Z, Zi, J on the representation.
    Each word becomes a matrix product, memoized by prefix and shared across
    `polys` for this call only; J becomes j_matrix(rep); each coefficient is
    its rational function of q at the root of unity.  exact=False evaluates
    an exact representation on the floating path (complex embeddings)."""
    if exact is None:
        exact = rep.backend == "exact"
    elif exact and rep.backend != "exact":
        raise ValueError("a floating representation has no exact evaluation")
    ctx, d = rep.ctx, rep.dim
    if exact:
        g, mul, eye = rep.mats(), ex_mul, ex_eye(ctx, d)
    else:
        g, mul, eye = rep.complex_mats(), np.matmul, np.eye(d, dtype=complex)
    memo = {"": eye, "X": g["X"], "Y": g["Y"], "Z": g["Z"], "z": g["Zinv"]}

    def word(w):
        got = memo.get(w)
        if got is None:
            if w == "J":
                got = j_matrix(rep) if exact else j_matrix_complex(rep)
            elif len(w) > 1:
                got = mul(word(w[:-1]), word(w[-1]))
            else:
                raise ValueError(f"unknown letter {w!r}")
            memo[w] = got
        return got

    out = []
    for p in polys:
        terms = [(_coefficient(c, ctx, exact), word(w)) for w, c in p.terms.items()]
        out.append(ex_lincomb(terms, ctx, d) if exact
                   else sum((s * M for s, M in terms), np.zeros((d, d), dtype=complex)))
    return out


# ---------------------------------------------------------------------------
# exact zeros decided modulo split primes
# ---------------------------------------------------------------------------
#
# A matrix's images are kept by diagonal, as (offsets, vals): vals[k, i] holds
# the images of entry (i, i + offsets[k]), zero where that column lies outside
# the matrix, with one image per column of the last axis.  The generators
# are banded (family 2 adds two corner entries), so a word stays banded and a
# product costs one multiply-add per pair of diagonals.


def _split_letters(rep: Representation, letters) -> dict:
    """For each letter: its matrix's nonzero entries, the integer D clearing
    their denominators, N >= every row sum of |sigma(D M)|, and its images
    per (prime count, gauss); cached on the representation."""
    cache = rep._cache.setdefault("split_letters", {})
    for letter in letters:
        if letter in cache:
            continue
        M = j_matrix(rep) if letter == "J" else \
            {"X": rep.X, "Y": rep.Y, "Z": rep.Z, "z": rep.Zinv}[letter]
        zero = rep.ctx.zero()
        entries = [(i, j, a) for i, row in enumerate(M) for j, a in enumerate(row)
                   if a is not zero and not a.is_zero()]
        contents = [l1_content(a) for _, _, a in entries]
        D = math.lcm(*(Da for Da, _ in contents))
        rows = [0] * rep.dim
        for (i, _, _), (Da, n) in zip(entries, contents):
            rows[i] += D // Da * n
        cache[letter] = {"entries": entries, "D": D, "N": max(rows), "images": {},
                         "gauss": any(isinstance(a, GaussCyclo) for _, _, a in entries)}
    return {letter: cache[letter] for letter in letters}


def _letter_images(letters: dict, rep: Representation, m: int, gauss: bool) -> dict:
    """{letter: (offsets, vals)} from one split_images call over the entries
    of every letter that lacks them."""
    key = (m, gauss)
    todo = [data for data in letters.values() if key not in data["images"]]
    if todo:
        img = split_images([a for data in todo for _, _, a in data["entries"]],
                           rep.ctx, m, gauss)
        start = 0
        for data in todo:
            entries = data["entries"]
            offsets = sorted({j - i for i, j, _ in entries})
            pos = {o: k for k, o in enumerate(offsets)}
            vals = np.zeros((len(offsets), rep.dim, img.shape[1]), dtype=np.int64)
            vals[[pos[j - i] for i, j, _ in entries], [i for i, _, _ in entries]] = \
                img[start:start + len(entries)]
            start += len(entries)
            data["images"][key] = (offsets, vals)
    return {letter: data["images"][key] for letter, data in letters.items()}


def _split_coefficient(c, ctx: RootContext) -> dict:
    """A coefficient's value at q with its (D, N) content, and its images
    per prime count; cached on the context next to the value."""
    key = _coefficient_key(c, True)
    got = ctx._image_cache.get(key)
    if got is None:
        value = _coefficient(c, ctx, True)
        D, N = l1_content(value)
        got = ctx._image_cache[key] = {"value": value, "D": D, "N": N, "images": {}}
    return got


def _coefficient_images(coef: dict, ctx: RootContext, m: int, gauss: bool) -> np.ndarray:
    got = coef["images"].get(m)
    if got is None:
        got = coef["images"][m] = split_images([coef["value"]], ctx, m, False)[0]
    return np.repeat(got, 2) if gauss else got


def _banded_mul(A, B, moduli, d: int):
    """Images of the product of two matrices held by diagonal: diagonal a of
    A times diagonal b of B, shifted by a, lands on diagonal a + b.  An
    entry of the result sums at most one product per diagonal of B, each
    below 2^50, so 2 d - 1 < 2^13 diagonals keep the sum inside int64
    until the final reduction."""
    offs_a, va = A
    offs_b, vb = B
    offs = sorted({a + b for a in offs_a for b in offs_b if abs(a + b) < d})
    pos = {o: k for k, o in enumerate(offs)}
    out = np.zeros((len(offs), d, va.shape[2]), dtype=np.int64)
    for ka, a in enumerate(offs_a):
        lo, hi = max(0, -a), min(d, d - a)
        for kb, b in enumerate(offs_b):
            if abs(a + b) < d:
                out[pos[a + b], lo:hi] += va[ka, lo:hi] * vb[kb, lo + a:hi + a]
    out %= moduli
    return offs, out


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


def certified_zeros(polys, rep: Representation) -> list:
    """For each y-free NcPoly, whether its matrix on rep is exactly zero,
    decided from the images modulo split primes (the certificate is stated
    in `scalar`): True when every image vanishes and the bound B on the
    embeddings of D alpha lies below the product of the primes, False when
    an image is nonzero, None when undecided (the bound needs more than
    MAX_SPLIT_PRIMES primes, a prime divides a denominator, rep is not
    exact, or its dimension is below SPLIT_MIN_DIM).  A caller evaluates
    the CycloNum matrix of every poly not decided True.  Word images are
    shared across polys for this call only."""
    out = [None] * len(polys)
    ctx, d = rep.ctx, rep.dim
    if (rep.backend != "exact" or d < SPLIT_MIN_DIM
            or max(ctx.degree, 2 * d) >= INT64_SUM_TERMS):
        return out
    letters = _split_letters(rep, {ch for p in polys for w in p.terms for ch in w})
    gauss = any(data["gauss"] for data in letters.values())
    plans, m = [], 0
    for p in polys:
        terms, D, bounds = [], 1, []
        for w, c in p.terms.items():
            coef = _split_coefficient(c, ctx)
            Dw, Nw = coef["D"], coef["N"]
            for ch in w:
                Dw, Nw = Dw * letters[ch]["D"], Nw * letters[ch]["N"]
            terms.append((w, coef))
            bounds.append((Dw, Nw))
            D = math.lcm(D, Dw)
        need = _primes_needed(ctx, sum(D // Dw * Nw for Dw, Nw in bounds))
        plans.append((terms, need))
        m = max(m, need or 0)
    if not m:
        return out
    moduli = np.repeat([p for p, *_ in ctx.split_primes(m)], ctx.degree * (1 + gauss))
    try:
        memo = _letter_images(letters, rep, m, gauss)
        memo[""] = ([0], np.ones((1, d, len(moduli)), dtype=np.int64))

        def word(w):
            got = memo.get(w)
            if got is None:
                got = memo[w] = _banded_mul(word(w[:-1]), memo[w[-1]], moduli, d)
            return got

        for k, (terms, need) in enumerate(plans):
            if need is None:
                continue
            images = [(_coefficient_images(coef, ctx, m, gauss), word(w)) for w, coef in terms]
            pos = {o: i for i, o in enumerate(sorted({o for _, (offs, _) in images
                                                      for o in offs}))}
            acc = np.zeros((len(pos), d, len(moduli)), dtype=np.int64)
            for c, (offs, vals) in images:
                acc[[pos[o] for o in offs]] += vals * c % moduli
            out[k] = not (acc % moduli).any()
    except ZeroDivisionError:   # a split prime divides a denominator
        return [None] * len(polys)
    return out


def _max_abs(A) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


def _close(A, B, exact: bool, tol: float):
    """(ok, residual) for A = B: entrywise equality on the exact backend
    (CycloNum is canonical, so equal values compare equal), with the
    difference's largest magnitude as residual on a mismatch; else relative
    to max(1, |A|, |B|) with the absolute floor."""
    if exact:
        if A == B:
            return True, 0.0
        r = ex_residual(ex_sub(A, B))
        return r == 0.0, r
    r = _max_abs(A - B)
    return r <= tol * max(1.0, _max_abs(A), _max_abs(B)) + ABS_TOL, r


# ---------------------------------------------------------------------------
# verification and derived matrices
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    residual: float
    detail: str = ""


@dataclass
class RelationReport:
    which: str
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "ok": self.ok,
            "max_residual": self.max_residual,
            "checks": [{"name": c.name, "ok": c.ok, "residual": c.residual,
                        **({"detail": c.detail} if c.detail else {})}
                       for c in self.checks],
            **self.extra,
        }

    def __repr__(self):
        state = "pass" if self.ok else "FAIL"
        return f"RelationReport({self.which}: {state}, max_residual={self.max_residual:.3g})"


def j_matrix(rep: Representation, tol: float = REL_TOL):
    """J = (q X - q^-1 Y) Z^-1, the matrix that `evaluate` substitutes for
    the letter J; asserts agreement with the equivalent form
    Z^-1 (q^-1 X - q Y) and caches the result on the representation."""
    got = rep._cache.get("J")
    if got is not None:
        return got
    exact = rep.backend == "exact"
    X, Y, Zinv = rep.X, rep.Y, rep.Zinv
    if exact:
        q, qi = q_power(rep.ctx, 1), q_power(rep.ctx, -1)
        lhs = ex_mul(ex_sub(ex_scale(X, q), ex_scale(Y, qi)), Zinv)
        rhs = ex_mul(Zinv, ex_sub(ex_scale(X, qi), ex_scale(Y, q)))
    else:
        q, qi = rep.ctx.q_complex, 1 / rep.ctx.q_complex
        lhs = (q * X - qi * Y) @ Zinv
        rhs = Zinv @ (qi * X - q * Y)
    same, r = _close(lhs, rhs, exact, tol)
    if not same:
        raise ArithmeticError(f"the two J forms disagree (residual {r:.3g}); "
                              "representation is corrupted")
    rep._cache["J"] = lhs
    return lhs


def j_matrix_complex(rep: Representation) -> np.ndarray:
    got = rep._cache.get("J_complex")
    if got is None:
        Jm = j_matrix(rep)
        got = ex_to_complex(Jm) if rep.backend == "exact" else np.array(Jm, dtype=complex)
        rep._cache["J_complex"] = got
    return got


def recover_xy(rep: Representation):
    """X' = (q J Z - q^-1 Z J)/(q^2 - q^-2) and the Y' counterpart
    (ncpoly.xy_recovery); the round trip contract is X' = X, Y' = Y."""
    return tuple(evaluate(xy_recovery(), rep))


def verify_relations(rep: Representation, which: str,
                     tol: float = REL_TOL) -> RelationReport:
    """which = defining | zj | central | star_original.  The defining and
    J-Z relations are the (LHS, RHS) pairs of ncpoly.relation_sides; on the
    exact backend a pair whose LHS - RHS is certified zero modulo split
    primes passes with residual 0, and the others are evaluated onto the
    matrices and compared.  The "defining" report is cached on the
    representation (per tolerance on the floating backend), so the check
    each constructor runs is not repeated."""
    exact = rep.backend == "exact"
    key = ("relations", which, None if exact else tol)
    if which == "defining" and key in rep._cache:
        return rep._cache[key]
    mul = ex_mul if exact else np.matmul
    X, Y, Z, Zinv = rep.X, rep.Y, rep.Z, rep.Zinv
    report = RelationReport(which=which)

    def check(name, A, B, detail=""):
        ok, r = _close(A, B, exact, tol)
        report.checks.append(CheckResult(name, ok, r, detail))

    if which in ("defining", "zj"):
        if which == "defining":
            # words cancel Z Zi on contact, so these two cannot be polynomials
            eye = ex_eye(rep.ctx, rep.dim) if exact else np.eye(rep.dim, dtype=complex)
            check("Z Zi = 1", mul(Z, Zinv), eye)
            check("Zi Z = 1", mul(Zinv, Z), eye)
        else:
            j_matrix(rep, tol)  # builds J, comparing its two forms at this tolerance
        sides = relation_sides(which)
        zero = certified_zeros(list(relation_differences(which).values()), rep)
        rest = [name for name, z in zip(sides, zero) if not z]
        mats = evaluate([p for name in rest for p in sides[name]], rep) if rest else []
        pairs = {name: mats[2 * k:2 * k + 2] for k, name in enumerate(rest)}
        for name, z in zip(sides, zero):
            if z:
                report.checks.append(CheckResult(name, True, 0.0))
            else:
                check(name, *pairs[name])
        if which == "defining":
            rep._cache[key] = report
        return report

    if which == "central":
        Jm = j_matrix(rep, tol)
        if exact:
            ZQ = ex_pow(Z, rep.ctx.Q, rep.ctx)
        else:
            ZQ = np.linalg.matrix_power(Z, rep.ctx.Q)
        for name, M in (("X", X), ("Y", Y), ("J", Jm)):
            check(f"Z^Q {name} = {name} Z^Q", mul(ZQ, M), mul(M, ZQ))
        scalar = ZQ[0][0]
        check("Z^Q is scalar", ZQ,
              ex_scale(ex_eye(rep.ctx, rep.dim), scalar) if exact
              else scalar * np.eye(rep.dim, dtype=complex))
        report.extra["scalar"] = [to_complex(scalar).real, to_complex(scalar).imag]
        return report

    if which == "star_original":
        mats = rep.complex_mats()
        for name in ("X", "Y", "Z"):
            M = mats[name]
            r = _max_abs(M.conj().T - M)
            report.checks.append(CheckResult(f"{name} self-adjoint",
                                             r <= tol * max(1.0, _max_abs(M)), r))
        return report

    raise ValueError(f"unknown relation set {which!r}")


# ---------------------------------------------------------------------------
# tensor products via the coproduct
# ---------------------------------------------------------------------------


def tensor_rep(a: Representation, b: Representation) -> Representation:
    """Action on the tensor product through the coproduct:
    X -> 1 (x) X + X (x) Z, Y -> 1 (x) Y + Y (x) Z, Z -> Z (x) Z."""
    if a.ctx != b.ctx:
        raise ValueError("tensor factors live in different root contexts")
    ctx = a.ctx
    if a.backend == "exact" and b.backend == "exact":
        ia = ex_eye(ctx, a.dim)
        X = ex_add(ex_kron(ia, b.X), ex_kron(a.X, b.Z))
        Y = ex_add(ex_kron(ia, b.Y), ex_kron(a.Y, b.Z))
        Z = ex_kron(a.Z, b.Z)
        Zinv = ex_kron(a.Zinv, b.Zinv)
        backend = "exact"
    else:
        am, bm = a.complex_mats(), b.complex_mats()
        ia = np.eye(a.dim, dtype=complex)
        X = np.kron(ia, bm["X"]) + np.kron(am["X"], bm["Z"])
        Y = np.kron(ia, bm["Y"]) + np.kron(am["Y"], bm["Z"])
        Z = np.kron(am["Z"], bm["Z"])
        Zinv = np.kron(am["Zinv"], bm["Zinv"])
        backend = "approx"
    rep = Representation(ctx, a.dim * b.dim, "tensor",
                         {"left": a.params, "right": b.params,
                          "families": [a.family, b.family]},
                         backend, X, Y, Z, Zinv)
    _require_defining(rep)
    return rep


def tensor_j_formula_residual(a: Representation, b: Representation,
                              t: Representation | None = None) -> float:
    """|J(a (x) b) - (Z^-1 (x) J + J (x) 1)| in the embedded norm."""
    t = t or tensor_rep(a, b)
    Jt = j_matrix_complex(t)
    za = a.complex_mats()["Zinv"]
    target = (np.kron(za, j_matrix_complex(b))
              + np.kron(j_matrix_complex(a), np.eye(b.dim, dtype=complex)))
    return float(np.max(np.abs(Jt - target)))


# ---------------------------------------------------------------------------
# family intersection
# ---------------------------------------------------------------------------


def intersection_check(ctx: RootContext, sign: int = 1) -> RelationReport:
    """The d = Q member of the first family (r = Q - 1, basis v_j) is the
    second-family point lambda = sign q^(1-Q), a = b = 0 (basis w_k).  Both
    are built exactly and, with k = Q - 1 - j, checked for
      pattern  X1, Y1, Z1 nonzero exactly at (j+1, j), (j-1, j), (j, j) and
               X2, Y2, Z2 at (k-1, k), (k+1, k), (k, k), so the wrap entries
               X2[Q-1][0] and Y2[0][Q-1] are zero;
      Z        Z1[j][j] = Z2[k][k] for every j;
      XY       X1[j][j-1] Y1[j-1][j] = X2[k][k+1] Y2[k+1][k], j = 1..Q-1.
    Lemma: then S v_j = s_j w_k, s_0 = 1, s_(j+1) = s_j X2[k-1][k] / X1[j+1][j]
    is invertible, and S Z1 = Z2 S, S X1 = X2 S, S Y1 = Y2 S (for Y,
    Y1[j-1][j] s_(j-1) = s_j Y2[k+1][k] is XY once s_j / s_(j-1) is put in).
    Z1 has distinct eigenvalues, so any intertwiner has this monomial form.
    S is never formed: only entries of Q(zeta_Q)(i) are multiplied and
    compared.  A failing check names its first failure in `detail`."""
    Q, zero = ctx.Q, ctx.zero()
    r1 = build_family1(ctx, Q - 1, sign)
    r2 = build_family2(ctx, sign * q_power(ctx, 1 - Q), 0, 0, backend="exact")
    bands = (("X1", r1.X, 1), ("Y1", r1.Y, -1), ("Z1", r1.Z, 0),   # row - column
             ("X2", r2.X, -1), ("Y2", r2.Y, 1), ("Z2", r2.Z, 0))

    def off_band(name, M, offset):
        band = {(j + offset, j) for j in range(Q) if 0 <= j + offset < Q}
        support = {(i, j) for i, row in enumerate(M) for j, a in enumerate(row)
                   if a is not zero and not a.is_zero()}
        return [(f"{name}[{i}][{j}] is {'off' if (i, j) in support else 'zero on'} the band",
                 abs(to_complex(M[i][j]))) for i, j in sorted(support ^ band)]

    def unequal(pairs, j0):
        return [(f"first mismatch at j = {j}", abs(to_complex(a - b)))
                for j, (a, b) in enumerate(pairs, j0) if a != b]

    flip = range(Q - 1, -1, -1)   # k for j = 0..Q-1
    failures = {   # (detail, embedded |difference| or stray entry) per failure
        "pattern": [f for b in bands for f in off_band(*b)],
        "Z": unequal(zip([r1.Z[j][j] for j in range(Q)], [r2.Z[k][k] for k in flip]), 0),
        "XY": unequal(zip([r1.X[j][j - 1] * r1.Y[j - 1][j] for j in range(1, Q)],
                          [r2.X[k][k + 1] * r2.Y[k + 1][k] for k in flip[1:]]), 1),
    }
    return RelationReport("intersection", [
        CheckResult(name, not f, max((r for _, r in f), default=0.0), f[0][0] if f else "")
        for name, f in failures.items()], {"sign": sign})


# ---------------------------------------------------------------------------
# JSON export / import
# ---------------------------------------------------------------------------


def representation_to_json(rep: Representation) -> dict:
    def mat_json(M):
        if rep.backend == "exact":
            return [[scalar_to_json(a) for a in row] for row in M]
        return [[scalar_to_json(complex(a)) for a in row] for row in np.asarray(M)]

    def params_json(v):
        if is_exact(v) or isinstance(v, complex):
            return scalar_to_json(v)
        if isinstance(v, dict):
            return {k: params_json(u) for k, u in v.items()}
        if isinstance(v, (list, tuple)):
            return [params_json(u) for u in v]
        return v

    params = {k: params_json(v) for k, v in rep.params.items()}
    return {
        "P": rep.ctx.P,
        "Q": rep.ctx.Q,
        "family": rep.family,
        "params": params,
        "backend": rep.backend,
        "generators": {
            "X": mat_json(rep.X),
            "Y": mat_json(rep.Y),
            "Z": mat_json(rep.Z),
        },
    }


def representation_from_json(data: dict) -> Representation:
    """Inverse of representation_to_json; ValueError unless X, Y and Z are
    square of one dimension and Z is diagonal with no zero on its diagonal."""
    ctx = RootContext(int(data["P"]), int(data["Q"]))
    backend = data["backend"]
    gens = data["generators"]
    d = len(gens["Z"])
    if not d or any(len(gens[g]) != d or any(len(row) != d for row in gens[g]) for g in "XYZ"):
        raise ValueError("X, Y and Z must be square matrices of one dimension")

    if backend == "exact":
        def mat(rows):
            return [[scalar_from_json(a, ctx) for a in row] for row in rows]
        X, Y, Z = mat(gens["X"]), mat(gens["Y"]), mat(gens["Z"])
        Zinv = ex_zeros(ctx, d)
        for i in range(d):
            for j in range(d):
                if (i != j) != Z[i][j].is_zero():
                    raise ValueError("Z must be diagonal with no zero on its diagonal")
            Zinv[i][i] = Z[i][i].inverse()
    else:
        def mat(rows):
            return np.array([[complex(a[0], a[1]) for a in row] for row in rows],
                            dtype=complex)
        X, Y, Z = mat(gens["X"]), mat(gens["Y"]), mat(gens["Z"])
        if not np.array_equal(Z != 0, np.eye(d, dtype=bool)):
            raise ValueError("Z must be diagonal with no zero on its diagonal")
        Zinv = np.diag(1 / np.diag(Z))
    return Representation(ctx, d, data["family"], dict(data.get("params", {})),
                          backend, X, Y, Z, Zinv)
