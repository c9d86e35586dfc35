"""Eigenstructure of the compact element J: the cubic matrix identity, the
raising/lowering ladder, tridiagonality of Z in the chain eigenbasis, and the
search for the sign involution + metric realizing the modified star structure.

The cubic identity is not typed in here: its y-coefficients come from
`ncpoly.identity_coefficients` and are evaluated onto the matrices by
`reps.evaluate`.

Eigenvalues come from the characteristic polynomial (Faddeev-LeVerrier
coefficients, simultaneous Durand-Kerner root iteration); eigenvectors from
the nullspace of M - lambda I by Gaussian elimination with partial pivoting.
Matrices here are at most 64 x 64, so this is accurate and dependency-free.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .ncpoly import identity_coefficients, identity_sides, y_coefficients
from .scalar import ABS_TOL, REL_TOL, _as_int, q_number, q_power, to_complex
# j_matrix is re-exported next to j_matrix_complex
from .reps import Representation, evaluate, j_matrix, j_matrix_complex

EIGEN_TOL = 1e-8
DK_TOL = 1e-12
DK_MAX_ITER = 500
RANK_TOL = 1e-10


class EigenSolveError(ArithmeticError):
    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


class ChainError(ArithmeticError):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


# ---------------------------------------------------------------------------
# eigenvalues and eigenvectors
# ---------------------------------------------------------------------------


def char_poly(M: np.ndarray) -> list[complex]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] with
    p(t) = t^n + c1 t^(n-1) + ... + cn (Faddeev-LeVerrier recursion)."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    cs = [1 + 0j]
    Mk = M.copy()
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        ck = -np.trace(Mk) / k
        cs.append(complex(ck))
        if k < n:
            Mk = M @ (Mk + ck * eye)
    return cs


def _polyval(cs, z):
    acc = 0j
    for c in cs:
        acc = acc * z + c
    return acc


def durand_kerner(cs, max_iter: int = DK_MAX_ITER, tol: float = DK_TOL) -> np.ndarray:
    """All roots of the monic polynomial simultaneously; initial points are
    the powers of 0.4 + 0.9i."""
    n = len(cs) - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    base = 0.4 + 0.9j
    z = np.array([base ** k for k in range(n)], dtype=complex)
    for _ in range(max_iter):
        p = np.array([_polyval(cs, zi) for zi in z])
        diffs = z[:, None] - z[None, :]
        np.fill_diagonal(diffs, 1.0)
        denom = np.prod(diffs, axis=1)
        w = np.zeros(n, dtype=complex)
        at_root = np.abs(p) < 1e-250
        stuck = (~at_root) & (np.abs(denom) < 1e-250)
        live = ~(at_root | stuck)
        w[live] = p[live] / denom[live]
        z = z - w
        if np.any(stuck):
            z[stuck] += 1e-8 * base
            continue
        if float(np.max(np.abs(w), initial=0.0)) < tol:
            return z
    raise EigenSolveError(f"root iteration did not converge in {max_iter} steps", best=z)


def nullspace(A: np.ndarray, rank_tol: float) -> list[np.ndarray]:
    """Orthogonal-ish basis of the nullspace via row reduction with partial
    pivoting; pivots below rank_tol count as zero."""
    A = np.array(A, dtype=complex)
    n, m = A.shape
    pivots = []
    row = 0
    for col in range(m):
        if row >= n:
            break
        sub = np.abs(A[row:, col])
        k = int(np.argmax(sub)) + row
        if abs(A[k, col]) <= rank_tol:
            continue
        if k != row:
            A[[row, k]] = A[[k, row]]
        A[row] = A[row] / A[row, col]
        for r in range(n):
            if r != row and A[r, col] != 0:
                A[r] = A[r] - A[r, col] * A[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(m, dtype=complex)
        v[f] = 1.0
        for r, c in enumerate(pivots):
            v[c] = -A[r, f]
        basis.append(v / np.linalg.norm(v))
    return basis


@dataclass
class EigenPair:
    value: complex
    vector: np.ndarray
    condition: float


def eigen_solve(M) -> list[EigenPair]:
    """All eigenpairs of a square complex matrix (dim <= 64), values sorted by
    (real, imag); repeated eigenvalues get the distinct nullspace basis
    vectors of their cluster.  Raises EigenSolveError when J is defective or
    the root iteration stalls."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n > 64:
        raise ValueError("matrices beyond 64 x 64 are out of scope")
    if n == 0:
        return []
    roots = sorted(durand_kerner(char_poly(M)),
                   key=lambda z: (z.real, z.imag))
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
        shifted = M - lam * np.eye(n, dtype=complex)
        rank_tol = RANK_TOL * max(1.0, float(np.max(np.abs(shifted))))
        basis = nullspace(shifted, rank_tol)
        if len(basis) < len(cluster):
            raise EigenSolveError(
                f"eigenvalue {lam:.6g} has multiplicity {len(cluster)} but only "
                f"{len(basis)} independent eigenvectors (defective or ill-conditioned)")
        for v in basis[:len(cluster)]:
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
    """{k: C_k}, the matrices of the y-coefficients of LHS - RHS, and on the
    floating path also {k: L_k} for the LHS alone (its size sets the
    relative scale, as the RHS is LHS - sum_k y^k C_k).  Cached on the
    representation."""
    key = "identity_exact" if exact else "identity_float"
    got = rep._cache.get(key)
    if got is None:
        coeffs = identity_coefficients()
        lhs = {} if exact else y_coefficients(identity_sides()[0])
        mats = evaluate(list(coeffs.values()) + list(lhs.values()), rep, exact)
        got = (dict(zip(coeffs, mats)), dict(zip(lhs, mats[len(coeffs):])))
        rep._cache[key] = got
    return got


def _identity_support(rep: Representation) -> dict:
    """{k: [(i, j, c), ...]}, the nonzero entries of each exact C_k; cached
    on the representation, and empty on every valid one."""
    got = rep._cache.get("identity_support")
    if got is None:
        C, _ = _identity_matrices(rep, True)
        got = {k: [(i, j, c) for i, row in enumerate(M) for j, c in enumerate(row)
                   if not c.is_zero()]
               for k, M in C.items()}
        rep._cache["identity_support"] = got
    return got


def verify_identity(rep: Representation, x, tol: float = REL_TOL) -> IdentityReport:
    """Check Z (J - [x+2]) (J - [x]) (J - [x-2]) Z =
    ((J - [x]) Z (J - [x]) Z - [2]^2) (J - [x]) on the representation, as
    LHS - RHS = sum_k y^k C_k with y = q^x.  Exact-zero contract on the exact
    backend with integer x."""
    xi = _as_int(x)
    if rep.backend == "exact" and xi is not None:
        # sum y^k C_k over the nonzero entries of the C_k only
        diff = {}
        for k, entries in _identity_support(rep).items():
            if entries:
                yk = q_power(rep.ctx, k * xi)
                for i, j, c in entries:
                    p = yk * c
                    o = diff.get((i, j))
                    diff[i, j] = p if o is None else o + p
        mags = np.abs([to_complex(v) for v in diff.values() if not v.is_zero()])
        residual = float(np.max(mags)) if mags.size else 0.0
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
    eye = np.eye(rep.dim, dtype=complex)
    return (Jc - mu * eye) @ (Jc - other * eye) @ Zc @ v


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
    for the second family cyclic closure is reported, not asserted."""
    Jc = j_matrix_complex(rep)
    Zc = rep.complex_mats()["Z"]
    q = rep.ctx.q_complex
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    pairs = eigen_solve(Jc)
    scale = max(1.0, max(abs(p.value) for p in pairs))

    def image(v, y, direction):
        mu = _mu_of(y, q)
        other = _mu_of(y / q ** 2 if direction == "raise" else y * q ** 2, q)
        return (Jc - mu * eye) @ (Jc - other * eye) @ Zc @ v

    def vanishes(w, ref):
        return np.linalg.norm(w) < tol * max(1.0, np.linalg.norm(ref))

    # locate a bottom: a pair and branch whose lowering image vanishes while
    # the raising image either links or also vanishes (d = 1).  Every chain
    # has a mirror (the branch swap y -> -1/y exchanges raising and
    # lowering), so for the first family prefer the bottom matching the
    # expected start y = q^(Q-d+1); the mirror starts at a non-integer label.
    bottoms = []
    for idx, p in enumerate(pairs):
        for y in _y_branches(p.value, q):
            if vanishes(image(p.vector, y, "lower"), p.vector):
                if d == 1 or not vanishes(image(p.vector, y, "raise"), p.vector):
                    bottoms.append((idx, y))
    start = None
    if rep.family == 1:
        y_expected = q ** (rep.ctx.Q - d + 1)
        for idx, y in bottoms:
            if abs(y - y_expected) <= tol * max(1.0, abs(y)):
                start = (idx, y)
                break
        if start is None:
            raise ChainError(
                f"no chain bottom found at the expected start x = {rep.ctx.Q - d + 1}",
                partial=LadderChain())
    elif bottoms:
        start = bottoms[0]
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
    d = rep.dim
    band = 0.0
    for i in range(d):
        for j in range(d):
            dist = abs(i - j) if mode == "plain" else min(abs(i - j), d - abs(i - j))
            if dist > 1:
                band = max(band, float(abs(Zp[i, j])))
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
    adjoint.  G is solved along the chain with G_00 = 1; T is scanned over
    all sign patterns (global sign fixed)."""
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

    best = None
    for tail in product((1, -1), repeat=d - 1):
        T = (1,) + tail
        g = [1.0] * d
        feasible = True
        for k in range(d - 1):
            ratio = None
            for name in ("Z", "X", "Y"):
                M = mats[name]
                num, den = M[k, k + 1], np.conj(M[k + 1, k])
                if abs(num) > eps and abs(den) > eps:
                    ratio = T[k] * T[k + 1] * num / den
                    break
            if ratio is None:
                ratio = 1.0 + 0j
            if abs(ratio.imag) > tol * max(1.0, abs(ratio)) or ratio.real <= 0:
                feasible = False
                break
            g[k + 1] = g[k] * ratio.real
        if not feasible:
            continue
        res = residuals_for(T, g)
        worst = max(res.values())
        scale = max(1.0, max(float(np.max(np.abs(M))) for M in mats.values()))
        cand = UnitarizingStructure(bool(worst <= tol * scale), list(T),
                                    [float(x) for x in g], res, B)
        if cand.ok:
            return cand
        if best is None or cand.max_residual < best.max_residual:
            best = cand
    if best is None:
        best = UnitarizingStructure(False, [1] * d, [1.0] * d,
                                    residuals_for((1,) * d, [1.0] * d), B)
    return best
