"""Eigenstructure of the compact element J: the cubic matrix identity, the
raising/lowering ladder, tridiagonality of Z in the chain eigenbasis, and the
search for the sign involution + metric realizing the modified star structure.

The cubic identity is not typed in here: its y-coefficients come from
`ncpoly.identity_coefficients`.  On an exact representation the C_k that
`reps.certified_zeros` does not certify zero modulo split primes are
evaluated by `reps.evaluate`, the nonzero ones are kept on the
representation, and each x sums y^k C_k over them; a valid representation
keeps none, so the identity holds there for every x.

Eigenpairs come from one LAPACK `np.linalg.eig` call when the spectrum is
simple under EIGEN_TOL clustering, every eigenvalue condition number is at
most KAPPA_MAX and every residual is at most RANK_TOL times the largest
off-diagonal entry; otherwise the values come from `np.linalg.eigvals`,
clustered within EIGEN_TOL, and each cluster's eigenvectors are the null
right singular vectors of M - lambda I.  Matrices here are at most 64 x 64.
The chain is computed once per representation and tolerance and cached on
the representation, so the tridiagonality check and the (T, G) search
reuse its eigenvectors.  The (T, G) search walks the chain once: the links
fix every product T_k T_{k+1}, so only steps that no matrix links leave a
sign to branch on.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .ncpoly import identity_coefficients, identity_sides, y_coefficients
from .scalar import ABS_TOL, REL_TOL, _as_int, q_number, q_power, to_complex
# j_matrix is re-exported next to j_matrix_complex
from .reps import (Representation, certified_zeros, evaluate, ex_is_zero, ex_lincomb,
                   ex_residual, j_matrix, j_matrix_complex)

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
    pair also passes the null-space test below.  Any other matrix takes
    `np.linalg.eigvals`, clusters the values within EIGEN_TOL and gives a
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
    order = sorted(range(n), key=lambda i: (w[i].real, w[i].imag))
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
    roots = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(r) for r in roots))
    clusters: list[list[complex]] = []
    for r in roots:
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


def _identity_matrices(rep: Representation, exact: bool):
    """{k: C_k}, the matrices of the y-coefficients of LHS - RHS (on the exact
    path only those neither certified nor evaluated zero), and on the floating
    path also {k: L_k} for the LHS alone (its size sets the relative scale, as
    the RHS is LHS - sum_k y^k C_k).  Cached on the representation."""
    key = "identity_exact" if exact else "identity_float"
    got = rep._cache.get(key)
    if got is None:
        coeffs = identity_coefficients()
        lhs = {} if exact else y_coefficients(identity_sides()[0])
        if exact:
            zero = certified_zeros(list(coeffs.values()), rep)
            coeffs = {k: c for (k, c), z in zip(coeffs.items(), zero) if not z}
        polys = list(coeffs.values()) + list(lhs.values())
        mats = evaluate(polys, rep, exact) if polys else []
        C = {k: M for k, M in zip(coeffs, mats) if not (exact and ex_is_zero(M))}
        got = (C, dict(zip(lhs, mats[len(coeffs):])))
        rep._cache[key] = got
    return got


def verify_identity(rep: Representation, x, tol: float = REL_TOL) -> IdentityReport:
    """Check Z (J - [x+2]) (J - [x]) (J - [x-2]) Z =
    ((J - [x]) Z (J - [x]) Z - [2]^2) (J - [x]) on the representation, as
    LHS - RHS = sum_k y^k C_k with y = q^x.  Exact-zero contract on the exact
    backend with integer x."""
    xi = _as_int(x)
    if rep.backend == "exact" and xi is not None:
        C, _ = _identity_matrices(rep, True)
        terms = [(q_power(rep.ctx, k * xi), M) for k, M in C.items()]
        residual = ex_residual(ex_lincomb(terms, rep.ctx, rep.dim)) if terms else 0.0
        return IdentityReport(to_complex(x), True, residual, residual == 0.0)
    C, L = _identity_matrices(rep, False)
    y = to_complex(q_power(rep.ctx, x))
    diff = sum(y ** k * M for k, M in C.items())
    lhs = sum(y ** k * M for k, M in L.items())
    residual = float(np.max(np.abs(diff)))
    scale_ref = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(lhs - diff))))
    return IdentityReport(complex(x), False, residual,
                          bool(residual <= tol * scale_ref + ABS_TOL))


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
    Jc = j_matrix_complex(rep)
    Zc = rep.complex_mats()["Z"]
    v = np.asarray(v, dtype=complex)
    mu = complex(to_complex(q_number(rep.ctx, x)))
    nv = np.linalg.norm(v)
    if nv == 0 or np.linalg.norm(Jc @ v - mu * v) > tol * max(1.0, nv):
        raise ValueError(f"v is not a [x]-eigenvector of J at x = {x}")
    other = complex(to_complex(q_number(rep.ctx, x - 2 if direction == "raise" else x + 2)))
    return _apply_ladder(Jc, Zc, mu, other, v)


def _apply_ladder(Jc, Zc, mu, other, v):
    """(J - mu)(J - other) Z v, one factor at a time from the right: three
    matrix-vector products instead of two matrix-matrix products."""
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
    Jc = j_matrix_complex(rep)
    Zc = rep.complex_mats()["Z"]
    q = rep.ctx.q_complex
    d = rep.dim
    pairs = eigen_solve(Jc)
    scale = max(1.0, max(abs(p.value) for p in pairs))

    def image(v, y, direction):
        mu = _mu_of(y, q)
        other = _mu_of(y / q ** 2 if direction == "raise" else y * q ** 2, q)
        return _apply_ladder(Jc, Zc, mu, other, v)

    def vanishes(w, ref):
        return np.linalg.norm(w) < tol * max(1.0, np.linalg.norm(ref))

    # locate a bottom: the first pair and branch whose lowering image
    # vanishes while the raising image either links or also vanishes (d = 1).
    # Every chain has a mirror (the branch swap y -> -1/y exchanges raising
    # and lowering), so for the first family only branches at the expected
    # start y = q^(Q-d+1) are tried; the mirror starts at a non-integer label.
    y_expected = q ** (rep.ctx.Q - d + 1) if rep.family == 1 else None
    start = next(((idx, y) for idx, p in enumerate(pairs) for y in _y_branches(p.value, q)
                  if (y_expected is None or abs(y - y_expected) <= tol * max(1.0, abs(y)))
                  and vanishes(image(p.vector, y, "lower"), p.vector)
                  and (d == 1 or not vanishes(image(p.vector, y, "raise"), p.vector))),
                 None)
    if rep.family == 1 and start is None:
        raise ChainError(
            f"no chain bottom found at the expected start x = {rep.ctx.Q - d + 1}",
            partial=LadderChain())
    cyclic_start = start is None
    if cyclic_start:
        # no path bottom: try every pair/branch until one raises into the set
        for idx, p in enumerate(pairs):
            for y in _y_branches(p.value, q):
                w = image(p.vector, y, "raise")
                if vanishes(w, p.vector):
                    continue
                nxt = _mu_of(y * q ** 2, q)
                if min(abs(nxt - o.value) for o in pairs) <= tol * scale:
                    start = (idx, y)
                    break
            if start:
                break
        if start is None:
            raise ChainError("no eigenpair admits a linking branch", partial=LadderChain())

    idx, y = start
    node = pairs[idx]
    chain = LadderChain(pairs=[node], cyclic=False)
    used = {idx}
    v = node.vector
    while True:
        w = image(v, y, "raise")
        nw = float(np.linalg.norm(w))
        if nw < tol * max(1.0, np.linalg.norm(v)):
            chain.links.append(("vanished", 0.0))
            break
        y_next = y * q ** 2
        mu_next = _mu_of(y_next, q)
        w = w / nw
        res = float(np.linalg.norm(Jc @ w - mu_next * w))
        if res > tol * scale:
            raise ChainError(
                f"raising image is not a [x+2]-eigenvector (residual {res:.3g})",
                partial=chain)
        if len(chain.pairs) == d:
            if abs(mu_next - chain.pairs[0].value) <= tol * scale:
                chain.links.append(("raised", nw))
                chain.cyclic = True
                break
            raise ChainError("chain exceeds the dimension without closing", partial=chain)
        # re-anchor on the solver's eigenvector so floating error does not
        # accumulate along repeated raising (overlap resolves degeneracies)
        candidates = [j for j, p in enumerate(pairs)
                      if j not in used and abs(p.value - mu_next) <= tol * scale]
        if not candidates:
            raise ChainError(
                f"no unused eigenvalue matches the raised value {mu_next:.6g}",
                partial=chain)
        j = max(candidates, key=lambda j: abs(np.vdot(pairs[j].vector, w)))
        used.add(j)
        chain.pairs.append(pairs[j])
        chain.links.append(("raised", nw))
        v, y = pairs[j].vector, y_next

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


def tridiagonality_check(rep: Representation, tol: float = EIGEN_TOL,
                         mode: str | None = None) -> TridiagReport:
    """Transform Z into the chain-ordered J-eigenbasis and measure the
    largest out-of-band entry: plain band |i-j| <= 1 for the first family,
    cyclic band min(|i-j|, Q-|i-j|) <= 1 for the second."""
    if mode is None:
        if rep.family == 1:
            mode = "plain"
        elif rep.family == 2:
            mode = "cyclic"
        else:
            raise ValueError("specify mode for representations outside the two families")
    chain = spectrum_chain(rep, tol)
    B = np.column_stack([p.vector for p in chain.pairs])
    Zc = rep.complex_mats()["Z"]
    Zp = np.linalg.solve(B, Zc @ B)
    i, j = np.indices(Zp.shape)
    dist = abs(i - j) if mode == "plain" else np.minimum(abs(i - j), rep.dim - abs(i - j))
    # a left fold from 0.0 in row-major order, entry by entry as float(abs(z))
    band = max([0.0] + [float(abs(z)) for z in Zp[dist > 1]])
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
    cm = rep.complex_mats()
    mats = {name: np.linalg.solve(B, cm[name] @ B) for name in ("X", "Y", "Z")}
    mats["J"] = np.linalg.solve(B, j_matrix_complex(rep) @ B)
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
