"""Exact zeros decided modulo split primes: the primes and their roots, the
images as ring maps, soundness of the bound, agreement with the CycloNum
evaluation, corrupted representations, the int64 invariant at the
largest dimension the spectral commands take, tape plans expanded from
their templates against plans built row by row, and no relation left
undecided on the first family."""

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from qsl2r import reps, scalar
from qsl2r.ncpoly import NcPoly, identity_coefficients, relation_differences
from qsl2r.reps import (Representation, build_family1, build_family2,
                        certified_zeros, evaluate, j_matrix, tensor_rep,
                        verify_relations)
from qsl2r.scalar import (SPLIT_PRIME_BOUND, CycloNum, GaussCyclo, RootContext,
                          _is_prime, entry_bounds, gauss_i, pack, q_power, split_images)
from qsl2r.spectral import MAX_DIM, verify_identity
from test_split_reference import _l1

GRID_PQ = [(P, Q) for Q in (3, 5, 7, 9) for P in range(1, Q) if gcd(P, Q) == 1]


def _inverse():
    """Z Zi - 1 and Zi Z - 1, the first two defining relations."""
    return list(relation_differences("defining").values())[:2]


def _polys():
    """The five C_k, the three defining relations among X, Y, Z and the two
    J-Z relations as LHS - RHS."""
    return (list(identity_coefficients().values())
            + list(relation_differences("defining").values())[2:]
            + list(relation_differences("zj").values()))


@pytest.fixture
def every_dim(monkeypatch):
    """Decide by images at every dimension, not only from SPLIT_MIN_DIM on."""
    monkeypatch.setattr(reps, "SPLIT_MIN_DIM", 1)


@pytest.fixture
def cyclonum_only(monkeypatch):
    """A switch to today's path: no poly certified, every matrix evaluated."""
    def switch():
        def undecided(polys, rep):
            return [None] * len(polys)
        monkeypatch.setattr(reps, "certified_zeros", undecided)
    return switch


def _random_cyclo(ctx, rng, den=1):
    return CycloNum(ctx, [rng.randint(-9, 9) for _ in range(ctx.degree)], den)


def _images(values, ctx, m, gauss):
    return split_images(pack(values, ctx), ctx, m, gauss)


def _python_image(a, p, omega, k):
    """a(omega^k) mod p with Python integers."""
    acc = sum(c * pow(omega, k * i, p) for i, c in enumerate(a.coeffs))
    return acc * pow(a.den, -1, p) % p


# -- the primes and the images ------------------------------------------------


@pytest.mark.parametrize("Q", [3, 7, 15, 31, 65])
def test_split_primes_carry_roots_of_order_q_and_4(Q):
    ctx = RootContext(1, Q)
    units = [k for k in range(1, Q) if gcd(k, Q) == 1]
    primes = ctx.split_primes(3)
    assert [p for p, *_ in primes] == sorted((p for p, *_ in primes), reverse=True)
    for p, omega, iota, E in primes:
        assert _is_prime(p) and p < SPLIT_PRIME_BOUND and p % (4 * Q) == 1
        assert pow(omega, Q, p) == 1 and len({pow(omega, e, p) for e in range(Q)}) == Q
        assert iota * iota % p == p - 1
        assert E.tolist() == [[pow(omega, k * i, p) for k in units]
                              for i in range(ctx.degree)]


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(2000) if _is_prime(n)] == [n for n in range(2000) if trial(n)]
    # Carmichael numbers, and 25326001, a strong pseudoprime to bases 2, 3 and 5
    for n in (561, 41041, 825265, 25326001, 33554393):
        assert _is_prime(n) == trial(n)


@pytest.mark.parametrize("Q", [5, 9, 15])
def test_images_are_ring_maps(Q):
    ctx = RootContext(2 if Q != 9 else 4, Q)
    rng = random.Random(Q)
    m = 2
    for _ in range(10):
        a = _random_cyclo(ctx, rng, rng.choice([1, 2, 15]))
        b = _random_cyclo(ctx, rng, rng.choice([1, 3]))
        ia, ib, iab, isum = _images([a, b, a * b, a + b], ctx, m, False)
        moduli = np.repeat([p for p, *_ in ctx.split_primes(m)], ctx.degree)
        assert np.array_equal(ia * ib % moduli, iab)
        assert np.array_equal((ia + ib) % moduli, isum)
        g, h = GaussCyclo(a, b), GaussCyclo(b, ctx.from_int(3))
        jg, jh, jgh = _images([g, h, g * h], ctx, m, True)
        gm = np.repeat(moduli, 2)
        assert np.array_equal(jg * jh % gm, jgh)
        # a CycloNum's two images per k coincide
        assert np.array_equal(_images([a], ctx, m, True)[0], np.repeat(ia, 2))
    units = [k for k in range(1, Q) if gcd(k, Q) == 1]
    huge = CycloNum(ctx, [2 ** 70 + 1] + [-3 ** 50] * (ctx.degree - 1), 7)  # beyond int64
    p, omega, _, _ = ctx.split_primes(1)[0]
    for v in (a, huge):
        row = _images([v], ctx, 1, False)[0]
        assert row.tolist() == [_python_image(v, p, omega, k) for k in units]


def test_gauss_images_take_both_square_roots_of_minus_one():
    ctx = RootContext(2, 5)
    m = 2
    row = _images([gauss_i(ctx)], ctx, m, True)[0].reshape(m, ctx.degree, 2)
    for (p, _, iota, _), block in zip(ctx.split_primes(m), row):
        assert block.tolist() == [[iota, p - iota]] * ctx.degree


def _content(v):
    """The (D, N) that `entry_bounds` gives one value."""
    return entry_bounds(pack([v], v.ctx), v.ctx)[0]


def test_entry_bounds_clear_denominators_and_bound_every_embedding():
    ctx = RootContext(1, 9)
    a = CycloNum(ctx, [1, -2, 0, 3, 0, 1], 2)      # already reduced: den 2
    b = CycloNum(ctx, [3, 0, 0, 0, -1, 0], 3)
    assert _content(a) == (2, 7)
    assert _content(GaussCyclo(a, b)) == (6, 3 * 7 + 2 * 4)
    # five times zeta^0 + ... + zeta^5 is -5 (zeta^6 + zeta^7 + zeta^8), of size
    # up to 12.66: the shift covers all Q = 9 slots, three of them empty
    five = CycloNum(ctx, [5] * 6)
    assert _content(five) == (1, 15)
    assert max(abs(complex(five._galois(k))) for k in (1, 2, 4)) > 12.6
    # at prime Q every unit counts 1, though zeta^(Q-1) folds to Q - 1 terms
    c7 = RootContext(2, 7)
    assert [_content(-c7.zeta(e)) for e in range(7)] == [(1, 1)] * 7
    assert _content(c7.zeta(6) * 3 + 1) == (1, 4)
    for ctx in (RootContext(1, 9), c7, RootContext(3, 11)):
        rng = random.Random(ctx.Q)
        units = [k for k in range(1, ctx.Q) if gcd(k, ctx.Q) == 1]
        for _ in range(20):
            v = GaussCyclo(_random_cyclo(ctx, rng, rng.choice([1, 2, 5])),
                           _random_cyclo(ctx, rng, rng.choice([1, 3])) * ctx.zeta(ctx.Q - 1))
            D, n = _content(v)
            for part in (v.re, v.im):
                assert all(D * c % part.den == 0 for c in part.coeffs)
            for k in units:
                for s in (1, -1):
                    sigma = complex(v.re._galois(k)) + s * 1j * complex(v.im._galois(k))
                    assert abs(D * sigma) <= n + 1e-9


def test_a_prime_dividing_a_denominator_is_refused():
    ctx = RootContext(1, 7)
    p = ctx.split_primes(1)[0][0]
    with pytest.raises(ZeroDivisionError):
        _images([CycloNum(ctx, [1] + [0] * 5, p)], ctx, 1, False)


# -- soundness: vanishing images alone certify nothing -------------------------


def test_a_multiple_of_the_primes_is_not_certified(monkeypatch):
    ctx = RootContext(1, 7)
    rep = build_family1(ctx, 4, 1)
    (p1, *_), (p2, *_) = ctx.split_primes(2)
    big = NcPoly.scalar(p1 * p2)
    # its images vanish modulo the first two primes ...
    assert not _images([ctx.from_int(p1 * p2)], ctx, 2, False).any()
    # ... so the bound asks for a third, whose images do not
    assert certified_zeros([big, NcPoly.scalar(p1)], rep) == [False, False]
    monkeypatch.setattr(scalar, "MAX_SPLIT_PRIMES", 2)
    assert certified_zeros([big, NcPoly.scalar(p1)], rep) == [None, False]
    monkeypatch.setattr(scalar, "MAX_SPLIT_PRIMES", 1)
    assert certified_zeros([NcPoly.scalar(p1)], rep) == [None]


def _bumped(rep, name, i, j, delta):
    mats = {"X": rep.X, "Y": rep.Y, "Z": rep.Z, "Zinv": rep.Zinv}
    bumped = dict(mats[name])
    bumped[i, j] = bumped.get((i, j), rep.ctx.zero()) + delta
    mats[name] = bumped
    return Representation(rep.ctx, rep.dim, rep.family, dict(rep.params), rep.backend,
                          mats["X"], mats["Y"], mats["Z"], mats["Zinv"])


def _outcome(f, *args):
    """f(*args), or the ArithmeticError it raises (a corrupted J does)."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _report(rep):
    """Every reported residual of the exact checks, in order."""
    def relations(which):
        return [(c.name, c.ok, c.residual) for c in verify_relations(rep, which).checks]
    return ([_outcome(relations, which) for which in ("defining", "zj")]
            + [_outcome(lambda x: verify_identity(rep, x).residual, x) for x in range(-3, 4)])


def _verdicts(rep):
    """certified_zeros and the CycloNum verdict on the defining relations,
    then on the J polys, or the error both raise."""
    polys = _polys()
    out = []
    for part in (polys[5:8], polys[:5] + polys[8:]):
        out.append((_outcome(certified_zeros, part, rep),
                    _outcome(lambda: [M == {} for M in evaluate(part, rep)])))
    return out


def _consistent(verdicts):
    """Each decided verdict equals the CycloNum one; None decides nothing."""
    for got, want in verdicts:
        if isinstance(want, list):
            assert len(got) == len(want)
            assert all(g is None or g == w for g, w in zip(got, want)), (got, want)
        else:
            assert got == want


def test_an_entry_divisible_by_the_primes_falls_back_with_todays_residual(cyclonum_only):
    ctx = RootContext(1, 7)
    good = build_family1(ctx, 4, 1)
    (p1, *_), (p2, *_) = ctx.split_primes(2)
    bump = ctx.zeta(1) * (p1 * p2)
    bad = _bumped(good, "X", 1, 0, bump)
    # the broken relation's entries are multiples of p1 p2, so all their
    # images modulo the first two primes vanish, yet it is not certified
    M = evaluate([_polys()[7]], bad)[0]
    entries = list(M.values())
    assert entries and not _images(entries, ctx, 2, False).any()
    verdicts = _verdicts(bad)
    _consistent(verdicts)
    assert verdicts[0][0][2] is False
    got = _report(bad)
    cyclonum_only()
    assert _report(_bumped(good, "X", 1, 0, bump)) == got
    assert not got[0][4][1] and got[0][4][2] > 0.0   # the XY relation fails


def test_a_split_prime_in_a_denominator_leaves_the_relations_to_the_cyclonum_path(
        monkeypatch):
    ctx = RootContext(1, 7)
    good = build_family1(ctx, 4, 1)
    (p1, *_), = ctx.split_primes(1)
    # X / p1 and Y p1 keep every defining relation, and p1 divides X's denominators
    rep = Representation(ctx, good.dim, 1, {}, "exact",
                         {k: a * Fraction(1, p1) for k, a in good.X.items()},
                         {k: a * p1 for k, a in good.Y.items()}, good.Z, good.Zinv)
    polys = list(relation_differences("defining").values())
    assert certified_zeros(polys, rep) == [None] * len(polys)
    evaluated = []

    def spy(ps, r, exact=None):
        evaluated.extend(ps)
        return evaluate(ps, r, exact)

    monkeypatch.setattr(reps, "evaluate", spy)
    report = verify_relations(rep, "defining")
    assert report.ok and report.max_residual == 0.0
    assert len(evaluated) == 2 * len(polys)    # both sides of every relation


# -- agreement with the CycloNum verdict ---------------------------------------


def _agree(rep):
    polys = _polys()
    want = [M == {} for M in evaluate(polys, rep)]
    assert certified_zeros(polys, rep) == want


@pytest.mark.parametrize("P,Q", GRID_PQ)
def test_verdicts_agree_on_the_first_family(P, Q, every_dim):
    ctx = RootContext(P, Q)
    for r in range(Q):
        for sign in (1, -1):
            _agree(build_family1(ctx, r, sign))


def test_verdicts_agree_on_exact_family2_and_tensor_reps(every_dim):
    for P, Q, e, a, b in ((2, 5, 3, 1, 2), (1, 3, 2, 0, 1), (1, 7, 1, 2, 0)):
        ctx = RootContext(P, Q)
        for lam in (ctx.zeta(e), -ctx.zeta(e)):
            _agree(build_family2(ctx, lam, a, b, backend="exact"))
    ctx = RootContext(2, 5)
    _agree(tensor_rep(build_family1(ctx, 1, 1), build_family1(ctx, 2, -1)))
    ctx = RootContext(1, 3)
    _agree(tensor_rep(build_family1(ctx, 1, 1),
                      build_family2(ctx, ctx.zeta(1), 1, 0, backend="exact")))


def _progression(offsets):
    return len({b - a for a, b in zip(offsets, offsets[1:])}) <= 1


def test_verdicts_agree_where_word_offsets_are_no_progression(every_dim):
    """The corners of the second family and the tensor coproduct give J
    diagonals that are no arithmetic progression; valid and bumped reps."""
    reps_ = [build_family2(RootContext(P, Q), sign * RootContext(P, Q).zeta(e), a, b,
                           backend="exact")
             for P, Q, e, a, b in ((3, 7, 2, 1, 2), (4, 9, 1, 2, 1)) for sign in (1, -1)]
    ctx = RootContext(2, 7)
    reps_.append(tensor_rep(build_family1(ctx, 2, 1), build_family1(ctx, 1, -1)))
    for rep in reps_:
        assert not _progression(reps._split_letters(rep, "J")["J"]["offsets"])
        _agree(rep)
        bad = _bumped(rep, "X", rep.dim - 1, 0, 1)
        verdicts = _verdicts(bad)
        _consistent(verdicts)
        assert any(False in got for got, _ in verdicts)


def _letter_images(letters, rep, m, gauss):
    """{letter: (offsets, vals)}, vals[k, i] the images of entry (i, i +
    offsets[k]): the letters' rows of `reps._letter_block`, whose last d
    rows are the identity's."""
    block, d, out, row = reps._letter_block(letters, rep, m, gauss), rep.dim, {}, 0
    for letter, data in letters.items():
        n = len(data["offsets"]) * d
        out[letter] = data["offsets"], block[row:row + n].reshape(-1, d, block.shape[1])
        row += n
    assert len(block) == row + d and (block[row:] == 1).all()
    return out


def _poly_images(images, words, coefs, moduli, d):
    """(offsets, vals) of each polynomial, given as its list of words, over
    the letters' images {letter: (offsets, vals)}: the sum over its terms of
    coefs[t] times the word, t counting the terms of all polynomials in
    order, read off the tape that `reps._run_tape` runs along `reps._plan`."""
    n = len(moduli)
    block = np.concatenate([vals.reshape(-1, n) for _, vals in images.values()]
                           + [np.ones((d, n), dtype=np.int64)])
    letters = {ch: tuple(offs) for ch, (offs, _) in images.items()}
    plan = reps._plan(d, tuple(letters.items()), tuple(map(tuple, words)))
    T = reps._run_tape(plan, block, np.array(coefs, dtype=np.int64).reshape(-1, n), moduli)
    owner, vals = plan[3][::d], T[len(T) - len(plan[3]):].reshape(-1, d, n)
    return [(_diagonals(d, letters, ws), vals[owner == k]) for k, ws in enumerate(words)]


def _diagonals(d, letters, words):
    """The sorted diagonals of a sum of words at dimension d: those of a
    word L u are the sums of L's and u's that lie in the matrix."""
    def word(w):
        if len(w) < 2:
            return set(letters.get(w, (0,)))
        return {a + b for a in letters[w[0]] for b in word(w[1:]) if -d < a + b < d}
    return tuple(sorted(set().union(*map(word, words))))


def _identity_images(rep, coefs_seed):
    letters = reps._split_letters(rep, "JZ")
    images = _letter_images(letters, rep, 1, False)
    moduli = np.repeat([p for p, *_ in rep.ctx.split_primes(1)], rep.ctx.degree)
    words = [[w for w, _ in p.terms] for p in identity_coefficients().values()]
    rng = np.random.default_rng(coefs_seed)
    coefs = [rng.integers(0, moduli) for _ in range(sum(map(len, words)))]
    return _poly_images(images, words, coefs, moduli, rep.dim), moduli


def test_the_chunked_reduction_matches_one_unreduced_sum(monkeypatch):
    rep = _bumped(build_family1(RootContext(2, 9), 6, 1), "X", 1, 0, 1)
    whole, moduli = _identity_images(rep, 3)
    monkeypatch.setattr(reps, "INT64_SUM_TERMS", 2)
    chunked, _ = _identity_images(rep, 3)
    assert any(vals.any() for _, vals in whole)
    for (offs, vals), (offs2, vals2) in zip(whole, chunked):
        assert offs == offs2 and np.array_equal(vals, vals2)
    rng = np.random.default_rng(4)
    prod = rng.integers(0, moduli, size=(5, 7, len(moduli))) * \
        rng.integers(0, moduli, size=(5, 7, len(moduli)))
    want = [[sum(int(v) for v in prod[r, :, c]) % int(p) for c, p in enumerate(moduli)]
            for r in range(5)]
    assert reps._sum_reduced(prod, moduli).tolist() == want


@pytest.mark.parametrize("extra", [0, 1])
def test_int64_sum_terms_full_residue_products_match_python_integers(extra):
    # one polynomial of INT64_SUM_TERMS (+ 1) terms over one full diagonal, every
    # residue near the top of its field: the unreduced sum reaches 2^63 - 2^40
    d = MAX_DIM
    moduli = np.array([p for p, *_ in RootContext(1, 3).split_primes(3)], dtype=np.int64)
    n = reps.INT64_SUM_TERMS + extra
    diag = moduli - 1 - np.arange(d)[:, None] % 5
    coefs = [moduli - 1 - t % 3 for t in range(n)]
    (offs, vals), = _poly_images({"A": ((0,), diag[None])}, [["A"] * n], coefs, moduli, d)
    assert offs == (0,)
    for t, p in enumerate(moduli.tolist()):
        total = sum(p - 1 - s % 3 for s in range(n))
        assert vals[0, :, t].tolist() == [(p - 1 - i % 5) * total % p for i in range(d)]


def test_the_size_selection_leaves_small_reps_to_the_cyclonum_path():
    ctx = RootContext(1, 7)
    assert certified_zeros(_polys(), build_family1(ctx, reps.SPLIT_MIN_DIM - 2, 1)) \
        == [None] * 10
    assert certified_zeros(_polys(), build_family1(ctx, reps.SPLIT_MIN_DIM - 1, 1)) \
        == [True] * 10
    floating = build_family2(ctx, 1.5, 1.0, 0.5)
    assert certified_zeros(_polys(), floating) == [None] * 10


# -- corrupted representations ---------------------------------------------------


@pytest.mark.parametrize("name,i,j", [("X", 1, 0), ("Z", 1, 1)])
def test_bumped_reps_are_certified_nonzero_with_residuals_unchanged(name, i, j, every_dim,
                                                                     cyclonum_only):
    # the bumped entries of test_evaluate and test_kernels
    good = build_family1(RootContext(1, 5), 2, 1)
    bad = _bumped(good, name, i, j, 1)
    verdicts = _verdicts(bad)
    assert all(got == want for got, want in verdicts)
    assert any(False in got for got, _ in verdicts)
    got = _report(bad)
    cyclonum_only()
    assert _report(_bumped(good, name, i, j, 1)) == got


def test_wrong_inverse_keeps_its_residuals(cyclonum_only):
    good = build_family1(RootContext(1, 5), 2, 1)

    def bad():
        return Representation(good.ctx, good.dim, 1, {}, "exact",
                              good.X, good.Y, good.Z, good.Z)
    _consistent(_verdicts(bad()))
    got = _report(bad())
    cyclonum_only()
    assert _report(bad()) == got


# -- int64 at the largest dimension ----------------------------------------------


def test_int64_images_match_python_integers_at_the_largest_dimension():
    d = MAX_DIM
    ctx = RootContext(1, d + 1)
    rep = build_family1(ctx, d - 1, 1)
    m = 2
    letters = reps._split_letters(rep, "ZJ")
    imgs = _letter_images(letters, rep, m, False)
    moduli = np.repeat([p for p, *_ in ctx.split_primes(m)], ctx.degree)
    (offs, vals), = _poly_images(imgs, [["ZJJZ"]], [np.ones(len(moduli), dtype=np.int64)],
                                      moduli, d)
    exact, = evaluate([NcPoly.word("ZJJZ")], rep)
    units = [k for k in range(1, ctx.Q) if gcd(k, ctx.Q) == 1]
    for t, (p, omega, _, _) in enumerate(ctx.split_primes(m)):
        for col in (0, len(units) - 1):
            k = units[col]
            dense = np.zeros((d, d), dtype=np.int64)
            for o, diag in zip(offs, vals[:, :, t * len(units) + col]):
                for i in range(max(0, -o), min(d, d - o)):
                    dense[i, i + o] = diag[i]
            want = [[_python_image(exact.get((i, j), ctx.zero()), p, omega, k)
                     for j in range(d)] for i in range(d)]
            assert dense.tolist() == want


def test_banded_products_of_full_residue_matrices_do_not_overflow():
    # every one of the 2d - 1 diagonals full, entries up to p - 1
    d = MAX_DIM
    primes = RootContext(1, 3).split_primes(3)
    moduli = np.array([p for p, *_ in primes], dtype=np.int64)
    rng = np.random.default_rng(64)
    dense = [rng.integers(0, moduli, size=(d, d, len(moduli))) for _ in range(2)]
    for D in dense:
        D[...] = moduli - 1 - D % 7     # near the top of each field

    def banded(D):
        offs = list(range(1 - d, d))
        vals = np.zeros((len(offs), d, len(moduli)), dtype=np.int64)
        for k, o in enumerate(offs):
            for i in range(max(0, -o), min(d, d - o)):
                vals[k, i] = D[i, i + o]
        return offs, vals

    (offs, vals), = _poly_images({"A": banded(dense[0]), "B": banded(dense[1])}, [["AB"]],
                                      [np.ones(len(moduli), dtype=np.int64)], moduli, d)
    for t, p in enumerate(moduli.tolist()):
        A = dense[0][:, :, t].astype(object)
        B = dense[1][:, :, t].astype(object)
        want = (A @ B) % p
        for k, o in enumerate(offs):
            for i in range(max(0, -o), min(d, d - o)):
                assert vals[k, i, t] == want[i, i + o]


# -- packed letters ----------------------------------------------------------------


def _bound(a, Q):
    """(D, N) of an exact value with the plain-integer reference `_l1`: a
    GaussCyclo is bounded as the sum re + i im."""
    parts = (a.re, a.im) if isinstance(a, GaussCyclo) else (a,)
    D = math.lcm(*(x.den for x in parts))
    return D, sum(D // x.den * _l1(x, Q) for x in parts)


def _row_bound(M, Q):
    """(D, N) of a matrix entry by entry: D clears every denominator and N is
    the largest row sum of the entries' `_bound` scaled to D."""
    contents = defaultdict(list)
    for (i, _), a in M.items():
        contents[i].append(_bound(a, Q))
    D = math.lcm(*(Da for row in contents.values() for Da, _ in row))
    return D, max((sum(D // Da * n for Da, n in row) for row in contents.values()), default=0)


@pytest.mark.parametrize("Q", [9, 15, 21, 25, 31])
def test_packed_bounds_are_the_entrywise_l1_contents(Q):
    ctx = RootContext(2, Q)
    rng = random.Random(Q)
    rep = build_family1(ctx, Q - 1, -1)
    gens = {"X": rep.X, "Y": rep.Y, "Z": rep.Z, "z": rep.Zinv, "J": j_matrix(rep)}
    values = [a for M in gens.values() for a in M.values()]
    values += [_random_cyclo(ctx, rng, rng.choice([1, 2, 15])) * ctx.zeta(rng.randrange(Q))
               for _ in range(30)]
    values += [s * ctx.zeta(e) for e in range(Q) for s in (1, -1)]
    values += [CycloNum(ctx, [c] * ctx.degree) for c in (5, -7)]   # shifts past deg
    assert entry_bounds(pack(values, ctx), ctx) == [_bound(v, Q) for v in values]
    letters = reps._split_letters(rep, gens)
    for letter, M in gens.items():
        assert letters[letter]["packed"][0].dtype == np.int64
        assert letters[letter]["bound"] == _row_bound(M, Q)
    # an entry too large for int64, or one whose bound would overflow it,
    # packs the letters with it as Python ints, with the same bounds
    huge = ctx.from_int(2 ** 70) * ctx.zeta(Q - 1) + Fraction(1, 3)
    wide = CycloNum(ctx, [(-1) ** i * (2 ** 62 - 1) for i in range(ctx.degree)])
    for big in (huge, wide):
        assert pack([big], ctx)[0].dtype == object
        bad = _bumped(rep, "X", 1, 0, big)
        letters = reps._split_letters(bad, "XY")
        for letter, M in (("X", bad.X), ("Y", bad.Y)):
            assert letters[letter]["packed"][0].dtype == object
            assert letters[letter]["bound"] == _row_bound(M, Q)
        assert letters["X"]["bound"][1] > 2 ** 63
    # GaussCyclo values pack as re and im rows, bounded as their sum
    gauss = [GaussCyclo(v, w) for v, w in zip(values[:20], values[20:40])] + values[40:50]
    C, dens = pack(gauss, ctx)
    assert C.shape == (30, 2, ctx.degree) and dens.shape == (30, 2)
    assert entry_bounds((C, dens), ctx) == [_bound(v, Q) for v in gauss]


def _poly_bounds(polys, rep, coefs):
    """The (D, N) of each poly on rep, written entry by entry: the sum over
    its terms of its coefficient's `_bound` times its letters'
    `_row_bound`.  coefs caches the coefficients' bounds per root context."""
    Q = rep.ctx.Q
    mats = {"X": rep.X, "Y": rep.Y, "Z": rep.Z, "z": rep.Zinv, "J": j_matrix(rep)}
    letter = {ch: _row_bound(M, Q) for ch, M in mats.items()}
    if rep.ctx not in coefs:
        q = q_power(rep.ctx, 1)
        coefs[rep.ctx] = [[_bound(c.subs_q(q), Q) for c in p.terms.values()] for p in polys]
    out = []
    for poly, cs in zip(polys, coefs[rep.ctx]):
        terms = [[c] + [letter[ch] for ch in w] for (w, _), c in zip(poly.terms, cs)]
        Dt = [math.prod(D for D, _ in t) for t in terms]
        D = math.lcm(*Dt)
        out.append((D, sum(D // d * math.prod(n for _, n in t) for d, t in zip(Dt, terms))))
    return out


def _entrywise_verdicts(monkeypatch, reps_, polys):
    """certified_zeros on each rep with the bounds it decides on replaced by
    `_poly_bounds`, once it is checked that they are those."""
    coefs, decide = {}, reps.split_verdicts
    out = []
    for rep in reps_:
        want = _poly_bounds(polys, rep, coefs)

        def entrywise(ctx, bounds, nonzero):
            assert bounds == want
            return decide(ctx, want, nonzero)

        with monkeypatch.context() as m:
            m.setattr(reps, "split_verdicts", entrywise)
            out.append(certified_zeros(polys, rep))
    return out


@pytest.mark.parametrize("Q", range(3, 32, 2))
def test_packed_letters_keep_the_verdicts_on_the_first_family(Q, monkeypatch):
    ctx = RootContext(Q - 2, Q)
    polys = _polys() + _inverse()
    reps_ = []
    for r in sorted({1, Q // 2, Q - 1}):
        for sign in (1, -1):
            good = build_family1(ctx, r, sign)
            k = r // 2
            reps_ += [good, _bumped(good, "X", 1, 0, 1), _bumped(good, "Zinv", k, k, 1)]
    # X / 3 and 3 Y keep every relation, with denominators in X and J
    reps_.append(Representation(ctx, good.dim, 1, {}, "exact",
                                {k: a * Fraction(1, 3) for k, a in good.X.items()},
                                {k: a * 3 for k, a in good.Y.items()}, good.Z, good.Zinv))
    got = [certified_zeros(polys, rep) for rep in reps_]
    assert got == _entrywise_verdicts(monkeypatch, reps_, polys)
    for rep, verdicts in zip(reps_, got):
        # the defining relations and Z Zi, Zi Z against their CycloNum matrices
        part = polys[5:8] + polys[10:]
        assert verdicts[5:8] + verdicts[10:] == [M == {} for M in evaluate(part, rep)]
    assert got[0] == got[-1] == [True] * 12
    assert False in got[1] and got[2][10:] == [False, False]


def test_packed_letters_keep_the_verdicts_on_family2_and_tensor_reps(monkeypatch):
    polys = _polys() + _inverse()
    reps_ = [build_family2(RootContext(P, Q), sign * RootContext(P, Q).zeta(e), a, b,
                           backend="exact")
             for P, Q, e, a, b in ((2, 5, 3, 1, 2), (1, 3, 2, 0, 1), (1, 7, 1, 2, 0),
                                   (3, 7, 2, 1, 2), (4, 9, 1, 2, 1)) for sign in (1, -1)]
    ctx = RootContext(2, 7)
    reps_.append(tensor_rep(build_family1(ctx, 2, 1), build_family1(ctx, 1, -1)))
    reps_ += [_bumped(rep, name, rep.dim - 1, rep.dim - 1 if name == "Zinv" else 0, 1)
              for rep in reps_ for name in ("X", "Zinv")]
    got = [certified_zeros(polys, rep) for rep in reps_]
    assert got == _entrywise_verdicts(monkeypatch, reps_, polys)
    assert all(v == [True] * 12 for v in got[:11])
    assert all(v[10:] == [False, False] for v in got[12::2])


def test_letters_packed_with_two_widths_share_one_block(every_dim):
    """A representation whose Z is typed GaussCyclo (im 0) packs X, Y, Z and
    Z^-1 as re and im rows, but J, computed from X, Y and Z^-1, as CycloNum
    rows: the block reduces each width once, and every verdict stays."""
    ctx = RootContext(2, 7)
    good = build_family1(ctx, 4, 1)
    Z = {k: GaussCyclo.from_scalar(a, ctx) for k, a in good.Z.items()}
    rep = Representation(ctx, good.dim, 1, {}, "exact", good.X, good.Y, Z, good.Zinv)
    polys = _polys() + _inverse()
    assert certified_zeros(polys[5:8] + polys[10:], rep) == [True] * 5
    letters = reps._split_letters(rep, "JZ")
    assert letters["Z"]["gauss"] and not letters["J"]["gauss"]
    assert certified_zeros(polys, rep) == certified_zeros(polys, good) == [True] * 12
    bad = _bumped(rep, "X", 1, 0, 1)
    assert certified_zeros(polys[5:8] + polys[10:], bad) == [True, True, False, True, True]
    _consistent(_verdicts(bad))


# -- tape plans ----------------------------------------------------------------------


def _rows_by_loops(d, letters, polys):
    """({row: Counter of (left, right) factors}, offsets) for the suffixes
    and polynomials of a tape at dimension d, built row by row: a row or
    factor is named (word or poly, diagonal, i), or ("coef", t)."""
    offsets = dict(letters, **{"": (0,)})
    words = sorted({w[k:] for ws in polys for w in ws for k in range(len(w) - 1)},
                   key=lambda w: (len(w), w))
    rows = {}
    for w in words:
        L, u = w[0], w[1:]
        offsets[w] = tuple(sorted({a + b for a in offsets[L] for b in offsets[u]
                                   if -d < a + b < d}))
        rows.update({(w, o, i): Counter() for o in offsets[w] for i in range(d)})
        for a in offsets[L]:
            for b in offsets[u]:
                for i in range(max(0, -a), min(d, d - a)):
                    if -d < a + b < d:
                        rows[w, a + b, i][(L, a, i), (u, b, i + a)] += 1
    t = 0
    for k, ws in enumerate(polys):
        offsets[k] = tuple(sorted({o for w in ws for o in offsets[w]}))
        rows.update({(k, o, i): Counter() for o in offsets[k] for i in range(d)})
        for w in ws:
            for o in offsets[w]:
                for i in range(d):
                    rows[k, o, i][("coef", t), (w, o, i)] += 1
            t += 1
    return rows, offsets


def _check_plan(d, letters, polys):
    """reps._plan lays the tape out as its docstring says, and each row sums
    the products the row-by-row build gives it, no row wider than its
    level needs; the polys' rows end the tape."""
    want, offsets = _rows_by_loops(d, letters, polys)
    n = sum(map(len, polys))
    keys = [letter for letter, _ in letters] + [""]
    names = [None] + [(key, o, i) for key in keys for o in offsets[key] for i in range(d)]
    names += [("coef", t) for t in range(n)]
    names += [row for row in want]     # suffixes by length, then polys, each in order
    size, coefs, levels, owner = reps._plan(d, letters, polys)
    assert size == len(names) and coefs == len(names) - len(want) - n
    got, lo = {}, coefs + n
    for start, hi, left, right in levels:
        assert start == lo
        level = {names[r]: Counter((names[a], names[b]) for a, b in zip(lf, rt) if a or b)
                 for r, lf, rt in zip(range(lo, hi), left, right)}
        assert left.shape == right.shape == (hi - lo, max([1] + [sum(c.values())
                                                                 for c in level.values()]))
        got.update(level)
        lo = hi
    assert lo == size and got == want
    assert [k for k, _, _ in names[size - len(owner):]] == owner.tolist()


def _word_lists(polys):
    return tuple(tuple(w for w, _ in p.terms) for p in polys)


def test_plans_expanded_from_templates_match_row_by_row_plans():
    sets = [_word_lists(relation_differences("defining").values()),
            _word_lists(relation_differences("zj").values()),
            _word_lists(identity_coefficients().values())]
    patterns = [(build_family1(RootContext(2, 7), 4, 1), (2, 3, 4, 5, 8, 16, 31, 63))]
    for P, Q, e, a, b in ((2, 5, 3, 1, 2), (4, 9, 1, 2, 1)):
        ctx = RootContext(P, Q)
        rep = build_family2(ctx, ctx.zeta(e), a, b, backend="exact")
        patterns.append((rep, (Q, Q + 1, 2 * Q)))
    ctx = RootContext(2, 7)
    rep = tensor_rep(build_family1(ctx, 2, 1), build_family1(ctx, 1, -1))
    patterns.append((rep, (6, 7, 12)))
    for rep, dims in patterns:
        for polys in sets:
            chars = sorted({ch for ws in polys for w in ws for ch in w})
            data = reps._split_letters(rep, chars)
            letters = tuple((ch, data[ch]["offsets"]) for ch in chars)
            for d in dims:
                _check_plan(d, letters, polys)
    # a word with no diagonal at d = 2, a zero polynomial, and a scalar one
    for d in (2, 3, 4):
        _check_plan(d, (("X", (-1,)), ("Y", (1,))), (("XX", "YX"), (), ("",), ("XXY", "X")))


# -- nothing left undecided --------------------------------------------------------


@pytest.mark.parametrize("Q", [15, 31])
def test_every_relation_is_certified_on_every_first_family_rep(Q):
    """A tape that stopped certifying would leave its verdicts to the
    CycloNum evaluation: the outputs the same and the speed lost.  So the
    lists that verify_relations and verify_identity pass, the defining
    relations with Z Zi = Zi Z = 1, the J-Z relations and the C_k, are each
    certified, never left undecided, on every first-family rep from
    SPLIT_MIN_DIM on."""
    sets = [list(relation_differences("defining").values()),
            list(relation_differences("zj").values()), list(identity_coefficients().values())]
    for P in range(1, Q):
        if gcd(P, Q) == 1:
            ctx = RootContext(P, Q)
            for r in range(reps.SPLIT_MIN_DIM - 1, Q):
                for sign in (1, -1):
                    rep = build_family1(ctx, r, sign)
                    for polys in sets:
                        assert certified_zeros(polys, rep) == [True] * len(polys), (P, r, sign)


# -- caching -----------------------------------------------------------------------


def test_word_images_do_not_stay_on_the_representation():
    # at P = 1, which certifies on its own tape whatever ran before
    rep = build_family1(RootContext(1, 7), 5, -1)
    verify_identity(rep, 1)
    assert set(rep._cache["split_letters"]) <= {"X", "Y", "Z", "z", "J"}
    assert not any(isinstance(k, str) and len(k) > 1 and set(k) <= set("XYZzJ")
                   for k in rep._cache)


def test_the_constructor_report_is_kept():
    rep = build_family1(RootContext(1, 5), 3, 1)
    assert verify_relations(rep, "defining") is verify_relations(rep, "defining")
    floating = build_family2(RootContext(1, 5), 1.5, 1.0, 0.5)
    kept = verify_relations(floating, "defining")
    assert verify_relations(floating, "defining") is kept
    other = verify_relations(floating, "defining", tol=1e-6)
    assert other is not kept and verify_relations(floating, "defining", tol=1e-6) is other
