"""Eigenstructure of the compact element J: the cubic matrix identity, the
raising/lowering ladder, tridiagonality of Z in the chain eigenbasis, and the
search for the sign involution + metric realizing the modified star structure.

The cubic identity is not typed in here: its y-coefficients come from
`ncpoly.identity_coefficients`.  On an exact representation the C_k that
`reps.certified_zeros` does not certify zero modulo split primes are
evaluated by `reps.evaluate`, the nonzero ones are kept on the
representation, and each integer x sums y^k C_k over them.  A valid
representation keeps none, so LHS - RHS vanishes for every y, and the
identity is an exact pass at every finite x, integer or not.  A
non-integer x where some C_k is kept, and every x on the floating
backend, take the floating path: the C_k, the LHS coefficients L_k and the
RHS coefficients L_k - C_k are evaluated once per representation into one
complex stack S of shape (3, len(ks), d^2) over the sorted y-exponents ks,
and each x costs one product (y ** ks) @ S and one max-abs reduction,
which give the residual, max|LHS| and max|RHS| together.

Eigenpairs come from one LAPACK `np.linalg.eig` call when the spectrum is
simple under EIGEN_TOL clustering, every eigenvalue condition number is at
most KAPPA_MAX and every residual is at most RANK_TOL times the largest
off-diagonal entry; otherwise that call's eigenvalues are clustered
within EIGEN_TOL, and each cluster's eigenvectors are the null
right singular vectors of M - lambda I.  Matrices here are at most 64 x 64.
The chain is computed once per representation and tolerance and cached on
the representation, so the tridiagonality check and the (T, G) search
reuse its eigenvectors.  Its start is one array test: both y-branches of
every eigenvalue at once, then one product giving all their lowering and
raising images; the first pair and branch, in pair order and y before
-1/y, that passes takes its y_0 from `_y_branches`, so every label is the
same float.  From its bottom the chain costs a fixed number of array
operations plus index work over the labels y_k = y_0 q^(2k): one
comparison of all eigenvalues with all [x + 2k] gives each label its
candidates, and the walk takes a raising image only where a label has
several unused candidates, to keep the one of largest overlap.  The
raising images (J - [x+2k])(J - [x+2k-2]) Z v of the walked eigenvectors
are then formed at once, factor by factor from the right with per-column
labels; link norms and [x+2k+2]-residuals are column reductions, read in
walk order for the verdicts.  The band residual is one reduction over the
off-band mask.  The chain and the band check read only Z and J, which
`Representation.embedded` embeds on demand.
The (T, G) search walks the chain once: the links
fix every product T_k T_{k+1}, so only steps that no matrix links leave a
sign to branch on.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .ncpoly import identity_coefficients, identity_lhs_coefficients
from .scalar import ABS_TOL, REL_TOL, _as_int, q_number, q_power, to_complex
# j_matrix is unused here; the bench tracer requires this import site
# (REQUIRED_SITES in perfbench/tracing.py)
from .reps import Representation, certified_zeros, evaluate, ex_lincomb, ex_residual, j_matrix

EIGEN_TOL = 1e-8
RANK_TOL = 1e-10
KAPPA_MAX = 1e4     # the largest eigenvalue condition number eig's vectors may have
MAX_DIM = 64        # the largest matrix eigen_solve takes


class EigenSolveError(ArithmeticError):
    pass


class ChainError(ArithmeticError):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


# ---------------------------------------------------------------------------
# eigenvalues and eigenvectors
# ---------------------------------------------------------------------------


@dataclass
class EigenPair:
    """An eigenvalue with a unit eigenvector; `condition` is the residual
    ||M v - value v||, not a condition number."""
    value: complex
    vector: np.ndarray
    condition: float


def eigen_solve(M) -> list[EigenPair]:
    """All eigenpairs of a square complex matrix (dim <= MAX_DIM), values
    sorted by (real, imag).  One `np.linalg.eig` call; its unit eigenvectors
    are returned as they are when every eigenvalue is simple under EIGEN_TOL
    clustering, every condition number kappa_i = ||y_i|| ||x_i|| / |y_i^H x_i|
    (Golub & Van Loan, Matrix Computations, 7.2.2; for unit x_i the norm of
    row i of V^-1) is at most KAPPA_MAX and every residual
    ||M v - lambda v|| is at most RANK_TOL max_{i != j} |M_ij|; as that entry
    bounds sigma_max(M - lambda I) and the residual bounds sigma_min, such a
    pair also passes the null-space test below.  Any other matrix keeps
    eig's eigenvalues, clusters them within EIGEN_TOL and gives a
    cluster of size m the m right singular vectors of M - lambda I with the
    smallest singular values, which must lie within RANK_TOL of the largest.
    Raises EigenSolveError when the matrix is defective (or too
    ill-conditioned to tell)."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"matrices beyond {MAX_DIM} x {MAX_DIM} are out of scope")
    if n == 0:
        return []
    w, V = np.linalg.eig(M)
    order = np.lexsort((w.imag, w.real))
    w, V = w[order], V[:, order]
    res = np.linalg.norm(M @ V - V * w, axis=0)
    if (np.all(np.abs(np.diff(w)) > EIGEN_TOL * max(1.0, np.max(np.abs(w))))
            and np.all(res <= RANK_TOL * np.max(np.abs(M - np.diag(np.diag(M)))))):
        try:
            W = np.abs(np.linalg.inv(V))
        except np.linalg.LinAlgError:   # V exactly singular
            W = np.full((n, n), np.inf)
        # kappa_i is the norm of row i of V^-1; with no entry above KAPPA_MAX
        # its squares cannot overflow
        if np.max(W) <= KAPPA_MAX and np.max(np.linalg.norm(W, axis=1)) <= KAPPA_MAX:
            return [EigenPair(complex(lam), v, float(r)) for lam, v, r in zip(w, V.T, res)]
    scale = max(1.0, max(abs(r) for r in w))
    clusters: list[list[complex]] = []
    for r in w:
        if clusters and abs(r - clusters[-1][-1]) <= EIGEN_TOL * scale:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    pairs = []
    for cluster in clusters:
        lam = sum(cluster) / len(cluster)
        _, sv, vh = np.linalg.svd(M - lam * np.eye(n, dtype=complex))
        null = int(np.count_nonzero(sv <= RANK_TOL * sv[0]))
        if null < len(cluster):
            raise EigenSolveError(
                f"eigenvalue {lam:.6g} has multiplicity {len(cluster)} but only "
                f"{null} independent eigenvectors (defective or ill-conditioned)")
        for v in vh[n - len(cluster):].conj():
            pairs.append(EigenPair(complex(lam), v, float(np.linalg.norm(M @ v - lam * v))))
    return pairs


# ---------------------------------------------------------------------------
# the cubic ladder identity at matrix level
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    x: complex
    exact: bool
    residual: float
    ok: bool


def _identity_matrices(rep: Representation):
    """{k: C_k}, the exact matrices of the y-coefficients of LHS - RHS that
    are neither certified nor evaluated zero.  Cached on the representation."""
    got = rep._cache.get("identity_exact")
    if got is None:
        coeffs = identity_coefficients()
        zero = certified_zeros(list(coeffs.values()), rep)
        coeffs = {k: c for (k, c), z in zip(coeffs.items(), zero) if not z}
        mats = evaluate(list(coeffs.values()), rep, True) if coeffs else []
        got = rep._cache["identity_exact"] = {k: M for k, M in zip(coeffs, mats) if M}
    return got


def _identity_stack(rep: Representation):
    """(ks, S) for the floating identity: ks the sorted y-exponents of
    LHS - RHS and of the LHS, and S of shape (3, len(ks), d^2) holding the
    flattened y^ks[i]-coefficients of LHS - RHS (the C_k), of the LHS (the
    L_k) and of the RHS (L_k - C_k), zero where a side has no such power.
    (y ** ks) @ S is then the three sides at y.  Cached on the
    representation."""
    got = rep._cache.get("identity_float")
    if got is None:
        coeffs = identity_coefficients()
        lhs = identity_lhs_coefficients()
        ks = sorted(set(coeffs) | set(lhs))
        mats = evaluate(list(coeffs.values()) + list(lhs.values()), rep, False)
        C, L = dict(zip(coeffs, mats)), dict(zip(lhs, mats[len(coeffs):]))
        zero = np.zeros(rep.dim ** 2, dtype=complex)
        c, l = (np.array([side[k].ravel() if k in side else zero for k in ks])
                for side in (C, L))
        got = rep._cache["identity_float"] = (np.array(ks), np.stack([c, l, l - c]))
    return got


def verify_identity(rep: Representation, x, tol: float = REL_TOL) -> IdentityReport:
    """Check Z (J - [x+2]) (J - [x]) (J - [x-2]) Z =
    ((J - [x]) Z (J - [x]) Z - [2]^2) (J - [x]) on the representation, as
    LHS - RHS = sum_k y^k C_k with y = q^x.  Exact-zero contract on the exact
    backend when no C_k is left, at every finite x, or with integer x;
    otherwise one product of the powers of y with the cached stack gives
    LHS - RHS, LHS and RHS at once.  ValueError unless x is finite."""
    xi = _as_int(x)
    y = q_power(rep.ctx, x)
    x = complex(x if xi is None else xi)
    C = _identity_matrices(rep) if rep.backend == "exact" else None
    if C is not None and (xi is not None or not C):
        terms = [(q_power(rep.ctx, k * xi), M) for k, M in C.items()]
        residual = ex_residual(ex_lincomb(terms, rep.ctx)) if terms else 0.0
        return IdentityReport(x, True, residual, residual == 0.0)
    ks, S = _identity_stack(rep)
    y = to_complex(y)
    residual, lhs, rhs = np.abs((y ** ks) @ S).max(axis=1).tolist()
    return IdentityReport(x, False, residual,
                          bool(residual <= tol * max(1.0, lhs, rhs) + ABS_TOL))


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------


def ladder_apply(rep: Representation, v, x, direction: str,
                 tol: float = EIGEN_TOL) -> np.ndarray:
    """Apply the raising operator (J - [x])(J - [x-2]) Z (direction="raise")
    or the lowering operator (J - [x])(J - [x+2]) Z to a [x]-eigenvector v.
    The image is zero or an eigenvector with eigenvalue [x+2] / [x-2]."""
    if direction not in ("raise", "lower"):
        raise ValueError("direction must be 'raise' or 'lower'")
    Jc, Zc = rep.embedded("J"), rep.embedded("Z")
    v = np.asarray(v, dtype=complex)
    mu = complex(to_complex(q_number(rep.ctx, x)))
    nv = np.linalg.norm(v)
    if nv == 0 or np.linalg.norm(Jc @ v - mu * v) > tol * max(1.0, nv):
        raise ValueError(f"v is not a [x]-eigenvector of J at x = {x}")
    other = complex(to_complex(q_number(rep.ctx, x - 2 if direction == "raise" else x + 2)))
    return _apply_ladder(Jc, Zc, mu, other, v)


def _apply_ladder(Jc, Zc, mu, other, v):
    """(J - mu)(J - other) Z v, one factor at a time from the right: three
    matrix-vector products instead of two matrix-matrix products.  v may
    hold several columns, with mu and other then one label per column."""
    w = Zc @ v
    w = Jc @ w - other * w
    return Jc @ w - mu * w


# ---------------------------------------------------------------------------
# spectrum chains
# ---------------------------------------------------------------------------


@dataclass
class LadderChain:
    pairs: list = field(default_factory=list)
    x_labels: list = field(default_factory=list)
    links: list = field(default_factory=list)   # ("raised", |image|) or ("vanished", 0.0)
    cyclic: bool = False

    @property
    def values(self):
        return [p.value for p in self.pairs]

    def to_json(self):
        return {
            "eigenvalues": [[p.value.real, p.value.imag] for p in self.pairs],
            "xLabels": [[complex(x).real, complex(x).imag] for x in self.x_labels],
            "links": [kind for kind, _ in self.links],
            "cyclic": self.cyclic,
        }


def _y_branches(mu: complex, q: complex):
    # y - 1/y = mu (q - 1/q); the two roots have product -1
    delta = q - 1 / q
    disc = cmath.sqrt(mu * mu * delta * delta + 4)
    y1 = (mu * delta + disc) / 2
    y2 = (mu * delta - disc) / 2
    return y1, y2


def _mu_of(y: complex, q: complex) -> complex:
    return (y - 1 / y) / (q - 1 / q)


def spectrum_chain(rep: Representation, tol: float = EIGEN_TOL) -> LadderChain:
    """Order the J-eigenpairs into a raising chain.  The spectral label is
    carried by y = q^x; the branch (y versus -1/y) is chosen as the one that
    links.  For the first family the chain must start at x = Q - d + 1 (up to
    the Q-periodicity of the q-numbers) and the top raise must annihilate;
    for the second family cyclic closure is reported, not asserted.  A chain
    is cached on the representation per tol, so tridiagonality_check and
    unitarize_search reuse it; a ChainError is not cached."""
    key = ("chain", tol)
    got = rep._cache.get(key)
    if got is None:
        got = rep._cache[key] = _build_chain(rep, tol)
    return got


def _build_chain(rep: Representation, tol: float) -> LadderChain:
    Jc, Zc = rep.embedded("J"), rep.embedded("Z")
    q = rep.ctx.q_complex
    d = rep.dim
    pairs = eigen_solve(Jc)
    scale = max(1.0, max(abs(p.value) for p in pairs))

    # locate a bottom: the first pair and branch (pairs in order, y before
    # -1/y) whose lowering image vanishes while the raising image either
    # links or also vanishes (d = 1); without one, the first whose raising
    # image is nonzero and lands on an eigenvalue.  Every chain has a mirror
    # (the branch swap y -> -1/y exchanges raising and lowering), so for the
    # first family only branches at the expected start y = q^(Q-d+1) are
    # tried; the mirror starts at a non-integer label.  One product gives the
    # lowering images of the n branches tried, then their raising images.
    values = np.array([p.value for p in pairs])
    delta = q - 1 / q
    disc = np.sqrt(values * values * delta * delta + 4)
    y_try = ((values * delta)[:, None] + np.multiply.outer(disc, (1, -1))).ravel() / 2
    cols = np.arange(2 * d)
    if rep.family == 1:
        y_expected = q ** (rep.ctx.Q - d + 1)
        cols = cols[np.abs(y_try - y_expected) <= tol * np.maximum(1.0, np.abs(y_try))]
    n, y_try = len(cols), y_try[cols]
    B = np.array([pairs[k // 2].vector for k in cols] * 2).T.reshape(d, 2 * n)
    W = _apply_ladder(Jc, Zc, _mu_of(np.concatenate([y_try, y_try]), q),
                      _mu_of(np.concatenate([y_try * q ** 2, y_try / q ** 2]), q), B)
    moved = np.linalg.norm(W, axis=0) >= tol * np.maximum(1.0, np.linalg.norm(B, axis=0))
    lowered, raised = moved[:n], moved[n:]
    found = np.flatnonzero(~lowered & (raised | (d == 1)))
    if rep.family == 1 and not found.size:
        raise ChainError(
            f"no chain bottom found at the expected start x = {rep.ctx.Q - d + 1}",
            partial=LadderChain())
    if not found.size:
        steps = np.abs(_mu_of(y_try * q ** 2, q)[:, None] - values).min(axis=1)
        found = np.flatnonzero(raised & (steps <= tol * scale))
    if not found.size:
        raise ChainError("no eigenpair admits a linking branch", partial=LadderChain())
    idx, branch = divmod(int(cols[found[0]]), 2)
    start = (idx, _y_branches(pairs[idx].value, q)[branch])

    # labels y_k = y_0 q^(2k) along the chain, one past the top for the
    # closing check of a cyclic chain: mus[k] = [x + 2k], others[k] = [x + 2k - 2]
    ys = [start[1]]
    for _ in range(d):
        ys.append(ys[-1] * q ** 2)
    mus = [_mu_of(y, q) for y in ys]
    others = [_mu_of(y / q ** 2, q) for y in ys[:d]]
    gap = values - np.array(mus[1:d])[:, None]
    near = np.hypot(gap.real, gap.imag) <= tol * scale
    candidates = [[] for _ in range(d)]     # candidates[k]: the pairs with label k
    rows, cols = np.nonzero(near)
    for k, j in zip(rows.tolist(), cols.tolist()):
        candidates[k + 1].append(j)

    # the walk over the labels is index work; only a label with several
    # unused candidates needs the raising image, to keep the one of largest
    # overlap.  It re-anchors on the solver's eigenvectors, so floating error
    # does not accumulate along repeated raising.
    order, used = [start[0]], {start[0]}
    for k in range(1, d):
        cand = [j for j in candidates[k] if j not in used]
        if not cand:
            break
        j = cand[0]
        if len(cand) > 1:
            w = _apply_ladder(Jc, Zc, mus[k - 1], others[k - 1], pairs[order[-1]].vector)
            nw = np.linalg.norm(w)
            w = w / nw if nw else w
            j = max(cand, key=lambda j: abs(np.vdot(pairs[j].vector, w)))
        order.append(j)
        used.add(j)

    # the raising images of the walked eigenvectors at once, with per-column labels
    n = len(order)
    B = np.array([pairs[j].vector for j in order]).T
    W = _apply_ladder(Jc, Zc, np.array(mus[:n]), np.array(others[:n]), B)
    norms = np.linalg.norm(W, axis=0)
    floors = tol * np.maximum(1.0, np.linalg.norm(B, axis=0))
    U = W / np.where(norms > 0, norms, 1.0)
    res = np.linalg.norm(Jc @ U - U * np.array(mus[1:n + 1]), axis=0)

    # the verdicts in walk order
    chain = LadderChain(pairs=[pairs[order[0]]], cyclic=False)
    for k in range(n):
        if norms[k] < floors[k]:
            chain.links.append(("vanished", 0.0))
            break
        if res[k] > tol * scale:
            raise ChainError(
                f"raising image is not a [x+2]-eigenvector (residual {res[k]:.3g})",
                partial=chain)
        if k + 1 == d:
            if abs(mus[d] - chain.pairs[0].value) <= tol * scale:
                chain.links.append(("raised", float(norms[k])))
                chain.cyclic = True
                break
            raise ChainError("chain exceeds the dimension without closing", partial=chain)
        if k + 1 == n:
            raise ChainError(
                f"no unused eigenvalue matches the raised value {mus[k + 1]:.6g}",
                partial=chain)
        chain.links.append(("raised", float(norms[k])))
        chain.pairs.append(pairs[order[k + 1]])

    if len(chain.pairs) != d:
        raise ChainError(
            f"chain links {len(chain.pairs)} of {d} eigenvalues", partial=chain)

    # spectral labels x with value_k = [x + 2k]
    y0 = start[1]
    if rep.family == 1:
        x_expected = rep.ctx.Q - d + 1
        mu_expected = complex(to_complex(q_number(rep.ctx, x_expected)))
        if abs(chain.pairs[0].value - mu_expected) > tol * scale:
            raise ChainError(
                f"first-family chain starts at {chain.pairs[0].value:.6g}, "
                f"expected [{x_expected}] = {mu_expected:.6g}", partial=chain)
        chain.x_labels = [x_expected + 2 * k for k in range(d)]
    else:
        x0 = rep.ctx.Q * cmath.log(y0) / (2j * cmath.pi * rep.ctx.P)
        chain.x_labels = [x0 + 2 * k for k in range(d)]
    return chain


# ---------------------------------------------------------------------------
# tridiagonality of Z in the chain eigenbasis
# ---------------------------------------------------------------------------


@dataclass
class TridiagReport:
    mode: str
    band_residual: float
    ok: bool
    matrix: np.ndarray = None


def tridiagonality_check(rep: Representation, tol: float = EIGEN_TOL) -> TridiagReport:
    """Transform Z into the chain-ordered J-eigenbasis and measure the
    largest out-of-band entry: plain band |i-j| <= 1 for the first family,
    cyclic band min(|i-j|, Q-|i-j|) <= 1 for the second; ValueError for
    any other representation."""
    if rep.family not in (1, 2):
        raise ValueError("the band is defined for the two families only")
    mode = "plain" if rep.family == 1 else "cyclic"
    chain = spectrum_chain(rep, tol)
    B = np.column_stack([p.vector for p in chain.pairs])
    Zp = np.linalg.solve(B, rep.embedded("Z") @ B)
    i, j = np.indices(Zp.shape)
    dist = abs(i - j) if mode == "plain" else np.minimum(abs(i - j), rep.dim - abs(i - j))
    # hypot of the parts is abs(z) of each entry bit for bit; np.abs is not
    off = Zp[dist > 1]
    band = float(np.hypot(off.real, off.imag).max()) if off.size else 0.0
    scale = max(1.0, float(np.max(np.abs(Zp))))
    return TridiagReport(mode, band, band <= tol * scale, Zp)


# ---------------------------------------------------------------------------
# the unitarizing structure (T, G)
# ---------------------------------------------------------------------------


@dataclass
class UnitarizingStructure:
    ok: bool
    T: list
    G: list
    residuals: dict
    basis: np.ndarray = None

    @property
    def max_residual(self):
        return max(self.residuals.values(), default=0.0)

    def to_json(self):
        return {"ok": self.ok, "T": list(self.T), "G": list(self.G),
                "residuals": dict(self.residuals)}


def unitarize_search(rep: Representation, tol: float = EIGEN_TOL) -> UnitarizingStructure:
    """Search a diagonal sign matrix T and a positive diagonal metric G, in
    the chain-ordered J-eigenbasis, with G^-1 M* G = T M T for M = X, Y, Z
    (the modified star realized as the G-adjoint), T J = J T and J G-self-
    adjoint.  G is solved along the chain with G_00 = 1 in one pass: at each
    step linked by Z, X or Y (the first with both entries nonzero) the ratio
    fixes G_{k+1} / G_k and the sign T_k T_{k+1}, so T_0 = 1 determines T up
    to the signs of unlinked steps, which are tried in lexicographic order
    (+1 first).  The first T meeting tol wins, else the one with the least
    residual; no admissible G gives T = 1, G = 1 with ok False."""
    chain = spectrum_chain(rep, tol)
    B = np.column_stack([p.vector for p in chain.pairs])
    mats = {name: np.linalg.solve(B, rep.embedded(name) @ B) for name in "XYZJ"}
    d = rep.dim
    eps = 1e-12

    def residuals_for(T, g):
        gv = np.asarray(g, dtype=float)
        ratio = np.outer(1 / gv, gv)
        Tv = np.asarray(T, dtype=float)
        tmat = np.outer(Tv, Tv)
        out = {}
        for name in ("X", "Y", "Z"):
            M = mats[name]
            out[name] = float(np.max(np.abs(M.conj().T * ratio - tmat * M)))
        Jp = mats["J"]
        out["J_G_selfadjoint"] = float(np.max(np.abs(Jp.conj().T * ratio - Jp)))
        out["TJ=JT"] = float(np.max(np.abs(np.diag(Tv) @ Jp - Jp @ np.diag(Tv))))
        return out

    # each ratio is taken once, without T: a +-1 factor is exact, so G is
    # the same bit for bit as with T_k T_{k+1} folded into the ratio
    steps = []          # forced sign of T_k T_{k+1}, or None where unlinked
    g = [1.0]
    for k in range(d - 1):
        ratio = None
        for name in ("Z", "X", "Y"):
            M = mats[name]
            num, den = M[k, k + 1], np.conj(M[k + 1, k])
            if abs(num) > eps and abs(den) > eps:
                ratio = num / den
                break
        if ratio is None:
            steps.append(None)
            g.append(g[k])
            continue
        if abs(ratio.imag) > tol * max(1.0, abs(ratio)) or ratio.real == 0:
            # no positive G for any T
            return UnitarizingStructure(False, [1] * d, [1.0] * d,
                                        residuals_for((1,) * d, [1.0] * d), B)
        sign = 1 if ratio.real > 0 else -1
        steps.append(sign)
        g.append(float(g[k] * (sign * ratio).real))

    scale = max(1.0, max(float(np.max(np.abs(M))) for M in mats.values()))
    best = None
    for choice in product((1, -1), repeat=steps.count(None)):
        free = iter(choice)     # signs of the unlinked steps, +1 first
        T = [1]
        for k, sign in enumerate(steps):
            T.append(next(free) if sign is None else sign * T[k])
        res = residuals_for(T, g)
        cand = UnitarizingStructure(bool(max(res.values()) <= tol * scale), T, g, res, B)
        if cand.ok:
            return cand
        if best is None or cand.max_residual < best.max_residual:
            best = cand
    return best
