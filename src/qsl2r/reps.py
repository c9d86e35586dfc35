"""Matrix models of the two irreducible families at an odd root of unity.

Basis convention: v_j is the j-th standard basis column (indices 0..d-1) and
matrices act on the left, so the family formulas become column operations.
An exact matrix is its nonzero entries, a dict {(i, j): a} of CycloNum /
GaussCyclo values whose dimension is the representation's; the floating
backend uses numpy complex128 arrays.  One rule keeps an exact matrix free
of zeros: `ex_matrix` drops every zero value, and every producer (the
kernels, J, both builders, `evaluate`, the tensor product and the exact
`Representation` constructor) builds through it.  So J, the
certificate's packing, the central check, the embedding and the
comparisons read the entries directly, with no scan for zeros, and order
them only where a report names the first failing one.  The generators
are sparse (X and Y bidiagonal, Z and Z^-1 diagonal, J tridiagonal): J
is formed per entry of X and Y, products run row by row over the entries
of both factors, exact comparisons test equality before forming any
difference, and the central check reads Z^Q off Z's diagonal with no
product at all.
A JSON payload lists each generator's nonzero entries, and
`representation_from_json` rebuilds it from its params, decoding no entry.
Every constructor verifies the defining relations before returning
(exactly on the exact backend).  Those relations imply every other form
of a derived matrix, so each is computed once from one formula:
J = (q X - q^-1 Y) Z^-1, entry by entry J[i, j] = X[i, j] (q z_j) -
Y[i, j] (q^-1 z_j) with z_j = Z^-1[j, j] on the exact backend, and the
tensor product's generators from `ncpoly.coproduct`, evaluated on the
pair of factors.  Every matrix is read by its ncpoly letter (X, Y, Z,
z = Z^-1, J), on the representation's own backend
(`Representation.matrix`) or as a complex array embedded once
(`Representation.embedded`).

The relations themselves are not typed in here: they live once, as
noncommutative polynomials in `ncpoly`, and `evaluate` maps them onto the
matrices of a representation on either backend, and tensor polynomials
onto a pair of representations by Kronecker products of each leg's word.
`evaluate` is the only producer of the relations' matrices.  Whether a polynomial
vanishes on an exact representation is asked first of `certified_zeros`.
The certificate is `scalar`'s: it packs values, maps them to images
modulo split primes, bounds entries, matrices and sums of products,
holds the prime budget and decides.  This module adds only the images of
words, on a tape: words and polynomials share one int64 tape whose layout
depends on d only through which diagonals exist, so it is laid out once
per relation set and band pattern (`_template`) and expanded to each d
by array operations (`_plan`).  Residues lie below 2^25 and products
below 2^50, so an entry of a word or a polynomial is reduced once, after
at most INT64_SUM_TERMS products.  The generators' nonzero entries are
packed once per representation, their images kept on it and those of
words only for one call.  Whatever the tape does not certify is
evaluated, so residuals and supports come from the CycloNum matrices as
before.  Z Z^-1 = 1 and Z^-1 Z = 1 are defining relations like the
others, written in `ncpoly` as the raw words Zz and zZ against 1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import accumulate
from math import prod
from operator import mul

import numpy as np

from .ncpoly import (NcPoly, coproduct, delta_j, relation_differences, relation_sides,
                     xy_recovery)
from .scalar import (ABS_TOL, INT64_SUM_TERMS, REL_TOL, GaussCyclo,
                     RootContext, entry_bounds, gauss_i, is_exact, matrix_bound, pack,
                     q_number, q_power, scalar_from_json, scalar_to_json, split_images,
                     split_moduli, split_verdicts, sum_bound, to_complex)

# Below this dimension zeros are decided by the CycloNum evaluation alone.
# The tape is no slower at d = 1 (first family, Q = 3..31, warm calls on 2
# shared cores: 0.05-0.08 against 0.09-0.16 ms on the defining relations,
# 0.07-0.13 against 0.14-0.15 ms on the identity's C_k), but this
# evaluation is the only CycloNum addition of the benchmark's
# identity-sweep and spectral-frontier workloads, whose traced runs refuse
# a counter that records no calls (perfbench/tracing.py, ROADMAP item 1).
SPLIT_MIN_DIM = 2

# ---------------------------------------------------------------------------
# exact matrix helpers (dicts {(i, j): a} of CycloNum / GaussCyclo entries)
# ---------------------------------------------------------------------------


def ex_matrix(items) -> dict:
    """The exact matrix {(i, j): a} of the ((i, j), a) items whose a is not
    zero: the one zero rule of exact matrices, which hold only their nonzero
    entries (a cancelled a - a included)."""
    return {k: a for k, a in items if not a.is_zero()}


def ex_eye(ctx: RootContext, n: int) -> dict:
    one = ctx.one()
    return {(i, i): one for i in range(n)}


def ex_mul(A, B) -> dict:
    """A B by rows (Gustavson): each entry a = A[i, t] meets only the
    entries of row t of B."""
    rows_b = defaultdict(list)
    for (t, j), b in B.items():
        rows_b[t].append((j, b))
    out = {}
    for (i, t), a in A.items():
        for j, b in rows_b.get(t, ()):
            p = a * b
            o = out.get((i, j))
            out[i, j] = p if o is None else o + p
    return ex_matrix(out.items())


def ex_sub(A, B) -> dict:
    out = dict(A)
    for k, b in B.items():
        a = out.get(k)
        out[k] = -b if a is None else a - b
    return ex_matrix(out.items())


def ex_kron(A, B, n: int) -> dict:
    """A (x) B for an n x n B, one product per pair of entries."""
    return ex_matrix(((i * n + ib, j * n + jb), a * b)
                     for (i, j), a in A.items() for (ib, jb), b in B.items())


def ex_lincomb(terms, ctx: RootContext) -> dict:
    """sum of s * M over the (s, M) pairs, skipping zero scalars."""
    one, out = ctx.one(), {}
    for s, M in terms:
        if s.is_zero():
            continue
        unit = s == one
        for k, a in M.items():
            p = a if unit else s * a
            o = out.get(k)
            out[k] = p if o is None else o + p
    return ex_matrix(out.items())


def ex_to_complex(A, n: int) -> np.ndarray:
    """The n x n A as a complex array, to_complex(a) entry by entry; zeros
    stay 0."""
    out = np.zeros((n, n), dtype=complex)
    for (i, j), a in A.items():
        out[i, j] = to_complex(a)
    return out


def ex_residual(A) -> float:
    """The largest embedded entry magnitude of an exact matrix, 0.0 when it
    is exactly zero (diagnostic for a failed exact check)."""
    if not A:
        return 0.0
    return float(np.abs(np.array([to_complex(a) for a in A.values()], dtype=complex)).max())


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


class Representation:
    """Matrices of X, Y, Z, Z^-1 for one member of a family, plus provenance.
    On the exact backend each is a dict {(i, j): a} of its nonzero entries
    (the constructor drops any zero a caller passes, by `ex_matrix`), on
    the floating one a complex array.  `matrix` and `embedded` read them,
    and J, by their ncpoly letters."""

    __slots__ = ("ctx", "dim", "family", "params", "backend",
                 "X", "Y", "Z", "Zinv", "_cache")

    def __init__(self, ctx, dim, family, params, backend, X, Y, Z, Zinv):
        if backend == "exact":
            X, Y, Z, Zinv = (ex_matrix(M.items()) for M in (X, Y, Z, Zinv))
        self.ctx = ctx
        self.dim = dim
        self.family = family
        self.params = params
        self.backend = backend
        self.X, self.Y, self.Z, self.Zinv = X, Y, Z, Zinv
        self._cache = {}

    def matrix(self, letter: str):
        """The matrix of the ncpoly letter X, Y, Z, z (Z^-1) or J on the
        representation's own backend, J by `j_matrix`."""
        if letter == "J":
            return j_matrix(self)
        if letter not in ("X", "Y", "Z", "z"):
            raise ValueError(f"unknown letter {letter!r}")
        return self.Zinv if letter == "z" else getattr(self, letter)

    def embedded(self, letter: str) -> np.ndarray:
        """`matrix(letter)` as a complex array, embedded the first time a
        caller reads it and kept, so a caller that reads only Z and J (the
        chain and the band check) embeds only those.  An exact matrix is
        embedded entry by entry (`ex_to_complex`)."""
        cache = self._cache.setdefault("embedded", {})
        got = cache.get(letter)
        if got is None:
            got = cache[letter] = (ex_to_complex(self.matrix(letter), self.dim)
                                   if self.backend == "exact"
                                   else np.array(self.matrix(letter), dtype=complex))
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
    Exact backend.  r and sign must be ints, not bools (ValueError)."""
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (r, sign)):
        raise ValueError(f"r and sign must be integers, got {r!r} and {sign!r}")
    if not 0 <= r <= ctx.Q - 1:
        raise ValueError(f"r must lie in 0..Q-1, got {r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d = r + 1
    zs = [q_power(ctx, r - 2 * j) for j in range(d)]
    if sign < 0:
        zs = [-z for z in zs]
    X = {(j + 1, j): -(q_power(ctx, r - 2 * j - 1) * q_number(ctx, r - j)) for j in range(r)}
    Y = {(j - 1, j): q_number(ctx, j) for j in range(1, d)}
    rep = Representation(ctx, d, 1, {"r": r, "sign": sign}, "exact", X, Y,
                         {(j, j): z for j, z in enumerate(zs)},
                         {(j, j): z.inverse() for j, z in enumerate(zs)})
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
        mi = -gauss_i(ctx)
        # one Galois-norm inverse of q - q^-1 per build, not one per column
        over_delta = partial(mul, (qp(1) - qp(-1)).inverse())
    elif backend == "approx":
        lam, a, b = (complex(to_complex(v)) for v in (lam, a, b))
        qp, mi = partial(pow, ctx.q_complex), -1j
        delta = qp(1) - qp(-1)

        def qn(k):
            return to_complex(q_number(ctx, k))

        def over_delta(v):
            return v / delta
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if not lam:
        raise ValueError("lambda must be nonzero")
    # lam^-1, a b and -i lam once per build, not once per column
    lam_inv, ab, mi_lam = 1 / lam, a * b, mi * lam
    Z, Zinv, Xm, Ym = {}, {}, {}, {}
    for j in range(Q):
        Z[j, j] = lam * qp(2 * j)
        Zinv[j, j] = lam_inv * qp(-2 * j)
        if j != 0:
            core = ab - over_delta(qn(j) * (lam * qp(j - 1) - qp(1 - j) * lam_inv))
            Xm[j - 1, j] = mi * qp(j - 1) * core
        if j != Q - 1:
            Ym[j + 1, j] = mi_lam * qp(j + 1)
    Xm[Q - 1, 0] = mi * a / qp(1)
    Ym[0, Q - 1] = mi_lam * b
    if backend == "approx":
        Z, Zinv, Xm, Ym = (ex_to_complex(M, Q) for M in (Z, Zinv, Xm, Ym))
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

def _require_y_free(polys):
    if any(k[-1] for p in polys for k in p.terms):
        raise ValueError("only y-free polynomials can be evaluated onto matrices")


def _coefficient(c, ctx: RootContext, exact: bool):
    """The coefficient's value at q, cached on the context under its
    canonical numerator and denominator."""
    key = exact, c.key()
    got = ctx._subs_cache.get(key)
    if got is None:
        got = ctx._subs_cache[key] = c.subs_q(q_power(ctx, 1) if exact else ctx.q_complex)
    return got


def _words(rep: Representation, exact: bool):
    """The matrix of a word on rep: a product of its letters' `rep.matrix`
    (`rep.embedded` on the floating path), memoized by prefix."""
    if exact:
        letter, mul, memo = rep.matrix, ex_mul, {"": ex_eye(rep.ctx, rep.dim)}
    else:
        letter, mul, memo = rep.embedded, np.matmul, {"": np.eye(rep.dim, dtype=complex)}

    def word(w):
        got = memo.get(w)
        if got is None:
            got = memo[w] = mul(word(w[:-1]), word(w[-1])) if len(w) > 1 else letter(w)
        return got
    return word


def evaluate(polys, rep, exact: bool | None = None) -> list:
    """Matrices of y-free NcPolys over X, Y, Z, Zi, J on the representation,
    or of y-free TensorPolys on a pair (a, b) of representations, a term
    (u, v) as the Kronecker product of u on a and v on b.  Each word
    becomes a product of its letters' matrices (`_words`), memoized by
    prefix and shared across `polys` for this call only; each coefficient
    is its rational function of q at the root of unity.  exact=False
    evaluates exact representations on the floating path (complex
    embeddings); exact=None, the default, evaluates exactly when every
    representation is exact."""
    _require_y_free(polys)
    legs = rep if isinstance(rep, tuple) else (rep,)
    if any(len(k) != len(legs) + 1 for p in polys for k in p.terms):
        raise ValueError("NcPolys take one representation and TensorPolys a pair")
    if exact is None:
        exact = all(leg.backend == "exact" for leg in legs)
    elif exact and any(leg.backend != "exact" for leg in legs):
        raise ValueError("a floating representation has no exact evaluation")
    ctx, d = legs[0].ctx, prod(leg.dim for leg in legs)
    words = [_words(leg, exact) for leg in legs]
    kron = partial(ex_kron, n=legs[-1].dim) if exact else np.kron
    out = []
    for p in polys:
        terms = [(_coefficient(c, ctx, exact), reduce(kron, [w(u) for w, u in zip(words, k)]))
                 for k, c in p.terms.items()]
        out.append(ex_lincomb(terms, ctx) if exact
                   else sum((s * M for s, M in terms), np.zeros((d, d), dtype=complex)))
    return out


# ---------------------------------------------------------------------------
# exact zeros decided modulo split primes
# ---------------------------------------------------------------------------
#
# Images are kept by diagonal: a matrix with diagonal offsets o_0 < o_1 < ...
# is a block of rows, row k d + i holding the images of entry (i, i + o_k),
# zero where that column lies outside the matrix, one image per column.  The
# generators are banded (family 2 adds two corner entries), so a word stays
# banded.


def _split_letters(rep: Representation, letters) -> dict:
    """For each letter: its matrix's nonzero entries packed (`pack`), its
    (D, N) (`matrix_bound`), whether it packs as GaussCyclo, its diagonal
    offsets and each entry's row in its block of diagonals; cached on the
    representation.  The letters not yet cached are packed together, once."""
    cache = rep._cache.setdefault("split_letters", {})
    new = {letter: rep.matrix(letter) for letter in letters if letter not in cache}
    if not new:
        return {letter: cache[letter] for letter in letters}
    C, dens = pack([a for M in new.values() for a in M.values()], rep.ctx)
    bounds = entry_bounds((C, dens), rep.ctx)
    start = 0
    for letter, M in new.items():
        stop = start + len(M)
        offsets = tuple(sorted({j - i for i, j in M}))
        at = {o: k * rep.dim for k, o in enumerate(offsets)}
        cache[letter] = {"bound": matrix_bound([i for i, _ in M], bounds[start:stop]),
                         "offsets": offsets, "rows": [at[j - i] + i for i, j in M],
                         "packed": (C[start:stop], dens[start:stop]), "gauss": C.shape[1] == 2}
        start = stop
    return {letter: cache[letter] for letter in letters}


def _letter_block(letters: dict, rep: Representation, m: int, gauss: bool) -> np.ndarray:
    """The images of the letters, each as its block of diagonals in the
    order of `letters`, then the d rows of the identity: tape rows 1 to
    `coefs` - 1 of `_plan`.  One reduction per pack width (only a corrupted
    representation mixes GaussCyclo and CycloNum letters); cached on the
    representation per (letters, m, gauss)."""
    cache = rep._cache.setdefault("split_blocks", {})
    key = tuple(letters), m, gauss
    got = cache.get(key)
    if got is None:
        data, d = list(letters.values()), rep.dim
        at = list(accumulate((len(x["offsets"]) * d for x in data), initial=0))
        got = np.zeros((at[-1] + d, len(split_moduli(rep.ctx, m, gauss))), dtype=np.int64)
        for wide in {x["gauss"] for x in data}:
            part = [(x, s) for x, s in zip(data, at) if x["gauss"] == wide]
            packed = [np.concatenate(a) for a in zip(*(x["packed"] for x, _ in part))]
            got[[s + r for x, s in part for r in x["rows"]]] = \
                split_images(packed, rep.ctx, m, gauss)
        got[-d:] = 1
        cache[key] = got
    return got


def _relation_set(polys, ctx: RootContext) -> dict:
    """The words of y-free polys term by term, their letters, each poly's
    coefficients' values at q packed, each term's word with its
    coefficient's (D, N), and the coefficients' images per (polys decided,
    prime count, gauss) once asked for; cached on the context under the
    polys' identities, which the entry keeps alive by holding the polys
    (the relation sets of `ncpoly` are built once per process)."""
    key = ("relation set",) + tuple(map(id, polys))
    got = ctx._image_cache.get(key)
    if got is None:
        packed = [pack([_coefficient(c, ctx, True) for c in p.terms.values()], ctx) for p in polys]
        got = ctx._image_cache[key] = {
            "polys": tuple(polys), "packed": packed, "rows": {},
            "words": tuple(tuple(w for w, _ in p.terms) for p in polys),
            "letters": tuple(sorted({ch for p in polys for w, _ in p.terms for ch in w})),
            "terms": [list(zip(p.terms, entry_bounds(pk, ctx))) for p, pk in zip(polys, packed)]}
    return got


@lru_cache(maxsize=64)
def _template(letters: tuple, polys: tuple) -> tuple:
    """What `_plan` lays out at every d, for polynomials given as their
    words term by term over letters with the diagonals ((letter, offsets),
    ...).  The slots are the tape's diagonals: the letters', the identity's
    (word ""), the suffixes' of two or more letters of the words by length,
    the polynomials'.  Diagonals a of L and b of u give one product into
    diagonal a + b of the suffix L u, and each diagonal of a term's word one
    into its polynomial's, with the term's coefficient.  A product exists
    from the least d above |a + b| at which its factors exist; a slot, from
    the least d at which a product into it does.  Returns (terms, fixed,
    least, table, bounds, owner): the first `fixed` slots are the letters'
    and the identity's, `least` is per slot, and `table` has a column
    (least, left, right, a, stride, slot, first) per product, by its slot
    past the fixed ones and that slot's first product; factors count the
    coefficient rows, then the slots, and a left factor steps along the
    rows by its stride (0 for a coefficient).  `bounds` start each level,
    then end the last, and `owner` is the polynomial of each of the
    polynomials' slots."""
    n = sum(map(len, polys))
    slots, index, diags, prods, owner = [], {}, {}, [], []

    def place(key, got, stride=1):     # got: {offset: [(least, left, right, a), ...]}
        diags[key] = {o: min((p[0] for p in got[o]), default=0) for o in sorted(got)}
        for o, least in diags[key].items():
            index[key, o] = n + len(slots)
            prods.extend([p + (stride, len(slots), len(prods)) for p in got[o]])
            slots.append(least)

    for letter, offs in letters:
        place(letter, dict.fromkeys(offs, ()))
    place("", {0: ()})
    fixed, bounds = len(slots), []
    for w in sorted({w[k:] for ws in polys for w in ws for k in range(len(w) - 1)},
                    key=lambda w: (len(w), w)):
        if len(bounds) < len(w) - 1:    # the first suffix of its length
            bounds.append(len(slots) - fixed)
        got = defaultdict(list)
        for a in diags[w[0]]:
            for b, least in diags[w[1:]].items():
                got[a + b].append((max(least, abs(a + b) + 1), index[w[0], a], index[w[1:], b], a))
        place(w, got)
    bounds.append(len(slots) - fixed)
    terms = iter(range(n))
    for k, words in enumerate(polys):
        got = defaultdict(list)
        for w, t in zip(words, terms):
            for o, least in diags[w].items():
                got[o].append((least, t, index[w, o], 0))
        place(k, got, 0)
        owner += [k] * len(got)
    bounds.append(len(slots) - fixed)
    table = np.array(prods, dtype=np.intp).reshape(-1, 7).T.copy()
    table[5] -= fixed
    return (n, fixed, np.array(slots, dtype=np.intp), table, np.array(bounds),
            np.array(owner, dtype=np.intp))


@lru_cache(maxsize=64)
def _plan(d: int, letters: tuple, polys: tuple):
    """The tape layout and gather indices of `_template(letters, polys)` at
    dimension d, by array broadcasting over its slots, products and rows.
    Row 0 stays zero; then come the letters and the identity, a row per
    term's coefficient from row `coefs`, the suffixes and the polynomials,
    d rows for each slot that exists at d.  Each level (a suffix length,
    the polynomials last) is (lo, hi, left, right): row lo + r is the sum
    over w of T[left[r, w]] T[right[r, w]].  In a word L u, entry (i, i + a)
    of L meets entry (i + a, i + a + b) of u, so a row sums one product per
    diagonal of L with entry (i, i + a) in the matrix; a polynomial's row,
    one per term.  A row's products come first, then row 0 up to the most
    any row of its level has.  Returns (size, coefs, levels, owner): owner
    gives the polynomial of each of the polynomials' rows, which end the
    tape."""
    n, fixed, least, table, bounds, owner = _template(letters, polys)
    present = least <= d
    rank = np.cumsum(present) - 1
    coefs, base = 1 + d * fixed, 1 + d * fixed + n
    start = 1 + d * rank
    start[fixed:] += n
    starts = np.concatenate([np.arange(coefs, base), start])
    exists, left, right, a, stride, slot, first = table
    i = np.arange(d)
    valid = (exists[:, None] <= d) & (i >= -a[:, None]) & (i < d - a[:, None])
    seen = np.zeros((len(exists) + 1, d), dtype=np.intp)
    np.cumsum(valid, axis=0, out=seen[1:])
    p, i = np.nonzero(valid)
    row, col = start[fixed + slot[p]] - base + i, seen[p + 1, i] - seen[first[p], i] - 1
    cuts = ((rank[fixed - 1 + bounds] + 1 - fixed) * d).tolist()
    L = np.zeros((2, cuts[-1], col.max(initial=0) + 1), dtype=np.intp)
    L[:, row, col] = starts[left[p]] + stride[p] * i, starts[right[p]] + i + a[p]
    edges = np.searchsorted(slot[p], bounds).tolist()
    levels = []
    for k in range(len(bounds) - 1):
        lo, hi, w = cuts[k], cuts[k + 1], col[edges[k]:edges[k + 1]].max(initial=0) + 1
        levels.append((base + lo, base + hi, *L[:, lo:hi, :w].copy()))
    out = np.flatnonzero(present[fixed + bounds[-2]:])
    return base + cuts[-1], coefs, levels, np.repeat(owner[out], d)


def _sum_reduced(prod, moduli, out=None) -> np.ndarray:
    """prod summed over its second axis and reduced (into out, if given),
    with at most INT64_SUM_TERMS summands in each unreduced sum (a carried
    residue counts as one)."""
    acc = np.remainder(prod[:, :INT64_SUM_TERMS].sum(axis=1), moduli, out=out)
    for k in range(INT64_SUM_TERMS, prod.shape[1], INT64_SUM_TERMS - 1):
        acc += prod[:, k:k + INT64_SUM_TERMS - 1].sum(axis=1)
        acc %= moduli
    return acc


def _run_tape(plan, block, coefs, moduli) -> np.ndarray:
    """The tape of a `_plan` from the letters' block (`_letter_block`) and
    the coefficient rows: a take, a multiply and a reduced sum per level,
    whatever the number of words, terms and diagonals."""
    size, first, levels = plan[:3]
    T = np.empty((size, len(moduli)), dtype=np.int64)
    T[0] = 0
    T[1:first] = block
    T[first:first + len(coefs)] = coefs
    for lo, hi, left, right in levels:
        prod = T.take(left, axis=0)
        prod *= T.take(right, axis=0)
        _sum_reduced(prod, moduli, T[lo:hi])
    return T


def certified_zeros(polys, rep: Representation) -> list:
    """For each y-free NcPoly, whether its matrix on rep is exactly zero:
    `split_verdicts` on each poly's bound and its images on the tape (True
    certifies a zero, False finds a nonzero image, None leaves it
    undecided, as when rep is not exact or its dimension is below
    SPLIT_MIN_DIM).  A caller evaluates every poly not decided True."""
    _require_y_free(polys)
    ctx, d = rep.ctx, rep.dim
    if (rep.backend != "exact" or d < SPLIT_MIN_DIM
            or max(ctx.degree, 2 * d) >= INT64_SUM_TERMS):
        return [None] * len(polys)
    rel = _relation_set(polys, ctx)
    letters = _split_letters(rep, rel["letters"])
    gauss = any(data["gauss"] for data in letters.values())
    bound = {ch: data["bound"] for ch, data in letters.items()}

    def nonzero(m, decided):
        block = _letter_block(letters, rep, m, gauss)
        key = decided, m, gauss     # the coefficients' images, kept with the relation set
        if key not in rel["rows"]:
            packed = [np.concatenate(a) for a in zip(*(rel["packed"][k] for k in decided))]
            rel["rows"][key] = split_images(packed, ctx, m, gauss)
        plan = _plan(d, tuple((ch, data["offsets"]) for ch, data in letters.items()),
                     tuple(rel["words"][k] for k in decided))
        T = _run_tape(plan, block, rel["rows"][key], split_moduli(ctx, m, gauss))
        owner = plan[3]
        return np.bincount(owner, T[len(T) - len(owner):].any(axis=1), len(decided)).tolist()

    return split_verdicts(ctx, [sum_bound([c, *map(bound.__getitem__, w)] for (w, _), c in terms)
                                for terms in rel["terms"]], nonzero)


def _max_abs(A) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


def _exact_mismatch(D):
    """(ok, residual, detail) of an exact LHS - RHS from its nonzero
    entries {(i, j): value}: the residual is `ex_residual` over them, the
    detail names the first in row-major order."""
    r = ex_residual(D)
    if r == 0.0:
        return True, r, ""
    i, j = min(D)
    return False, r, (f"first nonzero entry ({i}, {j}) of LHS - RHS, "
                      f"magnitude {abs(to_complex(D[i, j])):.6g}")


def _close(A, B, exact: bool, tol: float):
    """(ok, residual, detail) for A = B: entrywise equality on the exact
    backend (CycloNum is canonical, so equal values compare equal), with the
    difference's largest magnitude as residual on a mismatch; else relative
    to max(1, |A|, |B|) with the absolute floor.  On a mismatch `detail`
    names the first nonzero entry of A - B and its embedded magnitude
    (exact), or its largest entry (floating); it is empty on a pass."""
    if exact:
        if A == B:
            return True, 0.0, ""
        return _exact_mismatch(ex_sub(A, B))
    D = A - B
    r = _max_abs(D)
    if r <= tol * max(1.0, _max_abs(A), _max_abs(B)) + ABS_TOL:
        return True, r, ""
    i, j = np.unravel_index(np.argmax(np.abs(D)), D.shape)
    return False, r, f"largest entry ({i}, {j}) of LHS - RHS, magnitude {r:.6g}"


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


def j_matrix(rep: Representation):
    """J = (q X - q^-1 Y) Z^-1, the matrix that `evaluate` substitutes for
    the letter J (`ncpoly.j_expansion`), cached on the representation.  The
    paper's second form Z^-1 (q^-1 X - q Y) follows from the defining
    relations, which every way into a Representation checks.  On the exact
    backend Z^-1 must be diagonal (ValueError otherwise), and J is formed
    per entry of X and Y, J[i, j] = X[i, j] (q z_j) - Y[i, j] (q^-1 z_j)
    with z_j = Z^-1[j, j], a column with no z_j giving no entry."""
    got = rep._cache.get("J")
    if got is None:
        if rep.backend == "exact":
            got = _j_entries(rep)
        else:
            q, qi = rep.ctx.q_complex, 1 / rep.ctx.q_complex
            got = (q * rep.X - qi * rep.Y) @ rep.Zinv
        rep._cache["J"] = got
    return got


def _j_entries(rep: Representation) -> dict:
    """The exact J from X, Y and the diagonal Z^-1, q z_j formed only for
    the columns j that hold an entry of X and q^-1 z_j for those of Y."""
    if any(i != j for i, j in rep.Zinv):
        raise ValueError("the exact J needs a diagonal Z^-1")
    z = {j: a for (_, j), a in rep.Zinv.items()}
    q, qi, zero = q_power(rep.ctx, 1), q_power(rep.ctx, -1), rep.ctx.zero()
    qz = {j: q * z[j] for j in z.keys() & {j for _, j in rep.X}}
    qiz = {j: qi * z[j] for j in z.keys() & {j for _, j in rep.Y}}
    J = {(i, j): a * qz[j] for (i, j), a in rep.X.items() if j in qz}
    for (i, j), b in rep.Y.items():
        if j in qiz:
            J[i, j] = J.get((i, j), zero) - b * qiz[j]
    return ex_matrix(J.items())


def recover_xy(rep: Representation):
    """X' = (q J Z - q^-1 Z J)/(q^2 - q^-2) and the Y' counterpart
    (ncpoly.xy_recovery); the round trip contract is X' = X, Y' = Y."""
    return tuple(evaluate(xy_recovery(), rep))


def verify_relations(rep: Representation, which: str,
                     tol: float = REL_TOL) -> RelationReport:
    """which = defining | zj | central | star_original.  The defining and
    J-Z relations are the (LHS, RHS) pairs of ncpoly.relation_sides,
    "defining" with Z Zi = 1 and Zi Z = 1 first; on the exact backend a
    check whose LHS - RHS is certified zero modulo split primes, all in one
    `certified_zeros` call, passes with residual 0, and the others are
    evaluated onto the matrices and compared.  The "defining" report is
    cached on the representation (per tolerance on the floating backend),
    so the check each constructor runs is not repeated.  "central" checks
    that Z^Q commutes with X, Y and J and is scalar.  On the exact backend
    it reads Z's diagonal, which it requires (ValueError otherwise), and
    forms no matrix product: with zq_j = Z[j, j]^Q, (Z^Q M - M Z^Q)[i, j]
    is (zq_i - zq_j) M[i, j], so only the entries where zq_i != zq_j
    under an entry M[i, j] are formed, and Z^Q is scalar when every zq_j
    equals zq_0.  The residual and detail of a failing check are those of
    the full difference, the detail naming its first entry in row-major
    order."""
    exact = rep.backend == "exact"
    key = ("relations", which, None if exact else tol)
    if which == "defining" and key in rep._cache:
        return rep._cache[key]
    report = RelationReport(which=which)

    def check(name, A, B):
        report.checks.append(CheckResult(name, *_close(A, B, exact, tol)))

    if which in ("defining", "zj"):
        sides = relation_sides(which)
        zero = certified_zeros(list(relation_differences(which).values()), rep)
        rest = [name for name, z in zip(sides, zero) if not z]
        mats = iter(evaluate([p for name in rest for p in sides[name]], rep) if rest else ())
        for name, z in zip(sides, zero):
            if z:
                report.checks.append(CheckResult(name, True, 0.0))
            else:
                check(name, next(mats), next(mats))
        if which == "defining":
            rep._cache[key] = report
        return report

    if which == "central":
        Z = rep.matrix("Z")
        if exact:
            # Z is diagonal, so (Z^Q M - M Z^Q)[i, j] = (zq_i - zq_j) M[i, j]
            # with zq_j = Z[j, j]^Q: only the failing entries are formed
            if any(i != j for i, j in Z):
                raise ValueError("the exact central check needs a diagonal Z")
            zero = rep.ctx.zero()
            zq = [Z.get((j, j), zero) ** rep.ctx.Q for j in range(rep.dim)]
            scalar = zq[0]
            for name in "XYJ":
                report.checks.append(CheckResult(f"Z^Q {name} = {name} Z^Q", *_exact_mismatch(
                    {(i, j): (zq[i] - zq[j]) * a for (i, j), a in rep.matrix(name).items()
                     if zq[i] != zq[j]})))
            report.checks.append(CheckResult("Z^Q is scalar", *_exact_mismatch(
                {(j, j): z - scalar for j, z in enumerate(zq) if z != scalar})))
        else:
            ZQ = np.linalg.matrix_power(Z, rep.ctx.Q)
            for name in "XYJ":
                M = rep.matrix(name)
                check(f"Z^Q {name} = {name} Z^Q", ZQ @ M, M @ ZQ)
            scalar = ZQ[0][0]
            check("Z^Q is scalar", ZQ, scalar * np.eye(rep.dim, dtype=complex))
        report.extra["scalar"] = [to_complex(scalar).real, to_complex(scalar).imag]
        return report

    if which == "star_original":
        for name in "XYZ":
            M = rep.embedded(name)
            r = _max_abs(M.conj().T - M)
            report.checks.append(CheckResult(f"{name} self-adjoint",
                                             r <= tol * max(1.0, _max_abs(M)), r))
        return report

    raise ValueError(f"unknown relation set {which!r}")


# ---------------------------------------------------------------------------
# tensor products via the coproduct
# ---------------------------------------------------------------------------


def tensor_rep(a: Representation, b: Representation) -> Representation:
    """Action on the tensor product through the coproduct of X, Y, Z and
    Z^-1 (`ncpoly.coproduct`), evaluated on (a, b): exact when both
    factors are, else on their complex embeddings.  Its params name each
    factor's params, family and backend, which is what a payload rebuilds
    it from."""
    if a.ctx != b.ctx:
        raise ValueError("tensor factors live in different root contexts")
    X, Y, Z, Zinv = evaluate([coproduct(NcPoly.word(g)) for g in "XYZz"], (a, b))
    rep = Representation(a.ctx, a.dim * b.dim, "tensor",
                         {"left": a.params, "right": b.params,
                          "families": [a.family, b.family],
                          "backends": [a.backend, b.backend]},
                         "exact" if a.backend == b.backend == "exact" else "approx",
                         X, Y, Z, Zinv)
    _require_defining(rep)
    return rep


def tensor_j_formula_residual(a: Representation, b: Representation,
                              t: Representation | None = None) -> float:
    """|J(a (x) b) - Delta J| in the embedded norm, Delta J =
    Z^-1 (x) J + J (x) 1 (`ncpoly.delta_j`) evaluated on (a, b)."""
    t = t or tensor_rep(a, b)
    target, = evaluate([delta_j()], (a, b), exact=False)
    return float(np.max(np.abs(t.embedded("J") - target)))


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
    Q = ctx.Q
    r1 = build_family1(ctx, Q - 1, sign)
    r2 = build_family2(ctx, sign * q_power(ctx, 1 - Q), 0, 0, backend="exact")
    bands = (("X1", r1.X, 1), ("Y1", r1.Y, -1), ("Z1", r1.Z, 0),   # row - column
             ("X2", r2.X, -1), ("Y2", r2.Y, 1), ("Z2", r2.Z, 0))

    zero = ctx.zero()

    def at(M, i, j):
        return M.get((i, j), zero)

    def off_band(name, M, offset):
        band = {(j + offset, j) for j in range(Q) if 0 <= j + offset < Q}
        return [(f"{name}[{i}][{j}] is {'off' if (i, j) in M else 'zero on'} the band",
                 abs(to_complex(at(M, i, j)))) for i, j in sorted(M.keys() ^ band)]

    def unequal(pairs, j0):
        return [(f"first mismatch at j = {j}", abs(to_complex(a - b)))
                for j, (a, b) in enumerate(pairs, j0) if a != b]

    flip = range(Q - 1, -1, -1)   # k for j = 0..Q-1
    failures = {   # (detail, embedded |difference| or stray entry) per failure
        "pattern": [f for b in bands for f in off_band(*b)],
        "Z": unequal(zip([at(r1.Z, j, j) for j in range(Q)], [at(r2.Z, k, k) for k in flip]), 0),
        "XY": unequal(zip([at(r1.X, j, j - 1) * at(r1.Y, j - 1, j) for j in range(1, Q)],
                          [at(r2.X, k, k + 1) * at(r2.Y, k + 1, k) for k in flip[1:]]), 1),
    }
    return RelationReport("intersection", [
        CheckResult(name, not f, max((r for _, r in f), default=0.0), f[0][0] if f else "")
        for name, f in failures.items()], {"sign": sign})


# ---------------------------------------------------------------------------
# JSON export / import
# ---------------------------------------------------------------------------


def representation_to_json(rep: Representation) -> dict:
    """P, Q, family, params, backend, dim and each of X, Y and Z as its
    nonzero entries [i, j, scalar_to_json(a)] in row-major order, i and j
    Python ints: the keys of an exact dict, `np.nonzero` of an array."""
    def params_json(v):
        if is_exact(v) or isinstance(v, complex):
            return scalar_to_json(v)
        if isinstance(v, dict):
            return {k: params_json(u) for k, u in v.items()}
        if isinstance(v, (list, tuple)):
            return [params_json(u) for u in v]
        return v

    def entries(M):
        keys = sorted(M) if rep.backend == "exact" else zip(*(a.tolist() for a in np.nonzero(M)))
        return [[i, j, scalar_to_json(M[i, j])] for i, j in keys]

    return {
        "P": rep.ctx.P,
        "Q": rep.ctx.Q,
        "family": rep.family,
        "params": {k: params_json(v) for k, v in rep.params.items()},
        "backend": rep.backend,
        "dim": rep.dim,
        "generators": {g: entries(rep.matrix(g)) for g in "XYZ"},
    }


def _rebuild(ctx: RootContext, family, params: dict, backend: str) -> Representation:
    """The representation that a family (an int or "tensor"), params and
    backend name: build_family1 (embedded if floating), build_family2 on
    params decoded by `scalar_from_json`, or `tensor_rep` of the factors
    that "families", "left", "right" and "backends" name, each rebuilt."""
    if family == "tensor":
        return tensor_rep(*map(partial(_rebuild, ctx), params["families"],
                               (params["left"], params["right"]), params["backends"]))
    if type(family) is not int or family not in (1, 2) or backend not in ("exact", "approx"):
        raise ValueError(f"no family {family!r} on backend {backend!r}")
    if family == 2:
        return build_family2(ctx, *(scalar_from_json(params[k], ctx, backend)
                                    for k in ("lambda", "a", "b")), backend)
    rep = build_family1(ctx, params["r"], params["sign"])
    if backend == "exact":
        return rep
    return Representation(ctx, rep.dim, 1, rep.params, backend, *map(rep.embedded, "XYZz"))


def representation_from_json(data: dict) -> Representation:
    """Inverse of representation_to_json: the representation `_rebuild`
    makes from the payload's params, returned exactly when
    representation_to_json of it equals the payload.  ValueError unless P
    and Q are integers (not bools), family 1, 2 or "tensor", params (if
    any) a dict and backend exact or approx, unless the builder takes the
    params, and unless the payloads are equal, type by type as
    `_same_json` compares them (naming the fields that differ).  No matrix
    entry of the payload is decoded."""
    if missing := [k for k in ("P", "Q", "backend", "family") if k not in data]:
        raise ValueError(f"the payload has no {', '.join(missing)}")
    for key in ("P", "Q"):
        if not isinstance(data[key], int) or isinstance(data[key], bool):
            raise ValueError(f'"{key}" is {data[key]!r}, but P and Q must be integers')
    family = data["family"]
    if family not in (1, 2, "tensor") or type(family) not in (int, str):
        raise ValueError(f'"family" is {family!r}, but it must be 1, 2 or "tensor"')
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f'"params" is {params!r}, but it must be a dict')
    ctx = RootContext(data["P"], data["Q"])
    backend = data["backend"]
    if backend not in ("exact", "approx"):
        raise ValueError(f"unknown backend {backend!r}")
    head = f'"family" is {family!r}, but the payload does not load: "params" is {params!r}, but'
    try:
        rep = _rebuild(ctx, family, params, backend)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"{head} the builder refuses them ({exc!r})") from exc
    written = representation_to_json(rep)
    if not _same_json(written, data):
        differ = ", ".join(repr(k) for k in sorted(written.keys() | data.keys(), key=repr)
                           if k not in written or k not in data
                           or not _same_json(written[k], data[k]))
        raise ValueError(f"{head} the payload they rebuild differs in {differ}")
    return rep


def _same_json(a, b) -> bool:
    """a == b, and of the same type at every level: 3.0 is no 3, True no 1
    and a tuple no list, as json writes each differently."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_json(v, b[k]) for k, v in a.items())
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b
