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
matrices of a representation on either backend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .ncpoly import relation_sides, xy_recovery
from .scalar import (ABS_TOL, REL_TOL, CycloNum, GaussCyclo, RootContext,
                     gauss_i, is_exact, q_number, q_power, scalar_from_json,
                     scalar_to_json, to_complex)

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
    rows_b = [[(j, b) for j, b in enumerate(row) if not b.is_zero()] for row in B]
    out = []
    for row_a in A:
        acc = {}
        for t, a in enumerate(row_a):
            if a.is_zero():
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
    return [[a if b.is_zero() else a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def ex_scale(A, s):
    if (isinstance(s, CycloNum) and s.is_zero()) or (isinstance(s, GaussCyclo) and s.is_zero()):
        ctx = A[0][0].ctx
        return ex_zeros(ctx, len(A), len(A[0]))
    return [[(s * a if not a.is_zero() else a) for a in row] for row in A]


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
    one = ctx.one()
    out = ex_zeros(ctx, d)
    for s, M in terms:
        if s.is_zero():
            continue
        unit = s == one
        for row_o, row_m in zip(out, M):
            for j, a in enumerate(row_m):
                if not a.is_zero():
                    p = a if unit else s * a
                    o = row_o[j]
                    row_o[j] = p if o.is_zero() else o + p
    return out


def ex_to_complex(A) -> np.ndarray:
    return np.array([[0j if a.is_zero() else to_complex(a) for a in row] for row in A],
                    dtype=complex)


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


def build_family1(ctx: RootContext, r: int, sign: int = 1,
                  validate: bool = True) -> Representation:
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
    if validate:
        _require_defining(rep)
    return rep


def build_family2(ctx: RootContext, lam, a, b, backend: str = "approx",
                  validate: bool = True) -> Representation:
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
    elif backend == "approx":
        lam, a, b = (complex(to_complex(v)) for v in (lam, a, b))
        qp, mi, zero = partial(pow, ctx.q_complex), -1j, 0j

        def qn(k):
            return to_complex(q_number(ctx, k))
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if not lam:
        raise ValueError("lambda must be nonzero")
    delta = qp(1) - qp(-1)
    Z, Zinv, Xm, Ym = ([[zero] * Q for _ in range(Q)] for _ in range(4))
    for j in range(Q):
        zj = lam * qp(2 * j)
        Z[j][j] = zj
        Zinv[j][j] = 1 / zj
        if j != 0:
            core = a * b - qn(j) * (lam * qp(j - 1) - qp(1 - j) / lam) / delta
            Xm[j - 1][j] = mi * qp(j - 1) * core
        if j != Q - 1:
            Ym[j + 1][j] = mi * lam * qp(j + 1)
    Xm[Q - 1][0] = mi * a / qp(1)
    Ym[0][Q - 1] = mi * lam * b
    if backend == "approx":
        Z, Zinv, Xm, Ym = (np.array(M, dtype=complex) for M in (Z, Zinv, Xm, Ym))
    rep = Representation(ctx, Q, 2, {"lambda": lam, "a": a, "b": b},
                         backend, Xm, Ym, Z, Zinv)
    if validate:
        _require_defining(rep)
    return rep


def _require_defining(rep):
    report = verify_relations(rep, "defining")
    if not report.ok:
        raise ArithmeticError(f"construction violates the defining relations: {report}")


# ---------------------------------------------------------------------------
# evaluating symbolic polynomials onto matrices
# ---------------------------------------------------------------------------

def _coefficient(c, ctx: RootContext, exact: bool):
    """The y-free coefficient's value at q, cached on the context under its
    canonical numerator and denominator."""
    if set(c.terms) - {0}:
        raise ValueError("only y-free polynomials can be evaluated onto matrices")
    qr = c.terms[0]
    key = (exact, tuple(sorted(qr.num.items())), tuple(sorted(qr.den.items())))
    got = ctx._subs_cache.get(key)
    if got is None:
        got = ctx._subs_cache[key] = qr.subs_q(q_power(ctx, 1) if exact else ctx.q_complex)
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
    J-Z relations are the (LHS, RHS) pairs of ncpoly.relation_sides,
    evaluated onto the matrices."""
    exact = rep.backend == "exact"
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
        mats = evaluate([p for pair in sides.values() for p in pair], rep)
        for k, name in enumerate(sides):
            check(name, mats[2 * k], mats[2 * k + 1])
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


def tensor_rep(a: Representation, b: Representation,
               validate: bool = True) -> Representation:
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
    if validate:
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


@dataclass
class IntersectionReport:
    ok: bool
    z_spectra_dev: float
    j_spectra_dev: float
    trace_dev: float
    sign: int
    tol: float

    def to_json(self):
        return {"ok": self.ok, "sign": self.sign, "tol": self.tol,
                "z_spectra_dev": self.z_spectra_dev,
                "j_spectra_dev": self.j_spectra_dev,
                "trace_dev": self.trace_dev}


def _sorted_multiset(values) -> list[complex]:
    return sorted((complex(v) for v in values), key=lambda z: (round(z.real, 12), round(z.imag, 12)))


def multiset_deviation(a, b) -> float:
    a, b = _sorted_multiset(a), _sorted_multiset(b)
    if len(a) != len(b):
        return float("inf")
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def intersection_check(ctx: RootContext, sign: int = 1,
                       tol: float = 1e-8) -> IntersectionReport:
    """The d = Q member of the first family coincides with the second-family
    point (lambda = sign q^(1-Q), a = b = 0): compare Z spectra, J spectra and
    traces of all words in X, Y, Z up to length 4 (isomorphism invariants)."""
    from .spectral import eigen_solve

    r1 = build_family1(ctx, ctx.Q - 1, sign)
    lam = sign * ctx.q_complex ** (1 - ctx.Q)
    r2 = build_family2(ctx, lam, 0.0, 0.0)

    m1, m2 = r1.complex_mats(), r2.complex_mats()
    z_dev = multiset_deviation(np.diag(m1["Z"]), np.diag(m2["Z"]))
    j_dev = multiset_deviation([p.value for p in eigen_solve(j_matrix_complex(r1))],
                               [p.value for p in eigen_solve(j_matrix_complex(r2))])
    trace_dev = 0.0
    for length in range(1, 5):
        for word in itertools.product("XYZ", repeat=length):
            t1 = np.eye(ctx.Q, dtype=complex)
            t2 = np.eye(ctx.Q, dtype=complex)
            for ch in word:
                t1 = t1 @ m1[ch]
                t2 = t2 @ m2[ch]
            trace_dev = max(trace_dev, float(abs(np.trace(t1) - np.trace(t2))))
    z_dev, j_dev = float(z_dev), float(j_dev)
    ok = z_dev <= tol and j_dev <= tol and trace_dev <= tol
    return IntersectionReport(ok, z_dev, j_dev, trace_dev, sign, tol)


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
    ctx = RootContext(int(data["P"]), int(data["Q"]))
    backend = data["backend"]
    gens = data["generators"]

    if backend == "exact":
        def mat(rows):
            return [[scalar_from_json(a, ctx) for a in row] for row in rows]
        X, Y, Z = mat(gens["X"]), mat(gens["Y"]), mat(gens["Z"])
        d = len(Z)
        Zinv = ex_zeros(ctx, d)
        for i in range(d):
            for j in range(d):
                if i != j and not Z[i][j].is_zero():
                    raise ValueError("Z is expected diagonal in this export")
            Zinv[i][i] = Z[i][i].inverse()
    else:
        def mat(rows):
            return np.array([[complex(a[0], a[1]) for a in row] for row in rows],
                            dtype=complex)
        X, Y, Z = mat(gens["X"]), mat(gens["Y"]), mat(gens["Z"])
        d = Z.shape[0]
        if float(np.max(np.abs(Z - np.diag(np.diag(Z))))) > 0.0:
            raise ValueError("Z is expected diagonal in this export")
        Zinv = np.diag(1 / np.diag(Z))
    return Representation(ctx, d, data["family"], dict(data.get("params", {})),
                          backend, X, Y, Z, Zinv)
