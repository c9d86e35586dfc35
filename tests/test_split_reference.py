"""A reference for the split-prime certificate that shares none of its
machinery: plain Python integers, dense matrices, primes found by trial
division, and no caches, packed arrays or tape plans.  On sampled
first-family representations of dimension at most 6 at Q = 31, 45, 63 and
101, each with a bumped copy and a copy whose bound needs more primes, it
recomputes the bound and the images of the five C_k and of the defining
and J-Z relations, and `certified_zeros` must agree with it: True where it
certifies a zero, False where an image is nonzero."""

import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from qsl2r.ncpoly import identity_coefficients, relation_differences
from qsl2r.reps import Representation, build_family1, certified_zeros
from qsl2r.scalar import (MAX_SPLIT_PRIMES, SPLIT_PRIME_BOUND, CycloNum, GaussCyclo,
                          RootContext, pack, q_power, split_images)


def _is_prime(n):
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _split_primes(Q, count):
    """The count largest primes p = 1 (mod 4Q) below SPLIT_PRIME_BOUND."""
    p = SPLIT_PRIME_BOUND - 1
    p -= (p - 1) % (4 * Q)
    out = []
    while len(out) < count:
        if _is_prime(p):
            out.append(p)
        p -= 4 * Q
    return out


def _root_of_order(p, Q):
    factors = [f for f in range(2, Q + 1) if Q % f == 0 and _is_prime(f)]
    for h in range(2, p):
        w = pow(h, (p - 1) // Q, p)
        if all(pow(w, Q // f, p) != 1 for f in factors):
            return w
    raise AssertionError(f"no element of order {Q} mod {p}")


def _l1(a, Q):
    """A bound on |sigma(den a)| for every embedding sigma: the zeta^i for
    i < Q sum to zero, so the coefficients, padded to Q of them, may be
    shifted by their median before their absolute values are summed."""
    c = sorted(list(a.coeffs) + [0] * (Q - len(a.coeffs)))
    return sum(abs(x - c[Q // 2]) for x in c)


def _letters(rep):
    """The dense matrices of the letters, J = (q X - q^-1 Y) Z^-1 entry by
    entry."""
    ctx, d = rep.ctx, rep.dim
    q, qi = q_power(ctx, 1), q_power(ctx, -1)
    A = [[q * x - qi * y for x, y in zip(rx, ry)] for rx, ry in zip(rep.X, rep.Y)]
    J = [[reduce(lambda s, t: s + A[i][t] * rep.Zinv[t][j], range(d), ctx.zero())
          for j in range(d)] for i in range(d)]
    return {"X": rep.X, "Y": rep.Y, "Z": rep.Z, "z": rep.Zinv, "J": J}


def _powers(p, Q, deg):
    """E[i, t] = omega^(k_t i) mod p over the k_t coprime to Q, omega of
    order Q: a coefficient row times E is the value's images."""
    w = _root_of_order(p, Q)
    return np.array([[pow(w, k * i, p) for k in range(1, Q) if math.gcd(k, Q) == 1]
                     for i in range(deg)], dtype=object)


def _images(values, p, E):
    """values(omega^k) mod p, an object array with one row per value."""
    C = np.array([list(v.coeffs) for v in values], dtype=object).reshape(len(values), len(E))
    inv = np.array([pow(v.den, -1, p) for v in values], dtype=object)
    return (C @ E) % p * inv[:, None] % p


def _reference(polys, rep):
    """For each poly, (m, verdict): m the fewest split primes whose product
    exceeds its bound, and True when its images under them all vanish,
    False when one does not; (None, None) when MAX_SPLIT_PRIMES primes do
    not exceed the bound."""
    ctx, d = rep.ctx, rep.dim
    Q, deg = ctx.Q, ctx.degree
    mats = _letters(rep)
    D = {ch: math.lcm(*(a.den for row in M for a in row)) for ch, M in mats.items()}
    N = {ch: max(sum(D[ch] // a.den * _l1(a, Q) for a in row) for row in M)
         for ch, M in mats.items()}
    q = q_power(ctx, 1)
    terms = [[(w, c.subs_q(q)) for (w, _), c in p.terms.items()] for p in polys]
    primes = _split_primes(Q, MAX_SPLIT_PRIMES)
    need = []
    for ts in terms:
        Dw = [v.den * math.prod(D[ch] for ch in w) for w, v in ts]
        Nw = [_l1(v, Q) * math.prod(N[ch] for ch in w) for w, v in ts]
        lcm = math.lcm(1, *Dw)
        bound = sum(lcm // a * b for a, b in zip(Dw, Nw))
        need.append(next((m for m in range(1, len(primes) + 1)
                          if math.prod(primes[:m]) > bound), None))
    nonzero = [False] * len(polys)
    for t, p in enumerate(primes[:max(m or 0 for m in need)]):
        E = _powers(p, Q, deg)
        img = iter(_images([a for M in mats.values() for row in M for a in row], p, E))
        # (units, d, d) images of each letter
        letter = {ch: np.array([[next(img) for _ in range(d)] for _ in range(d)],
                               dtype=object).transpose(2, 0, 1) for ch in mats}
        eye = np.array([np.eye(d, dtype=int).astype(object)] * len(letter["Z"]))
        for k, ts in enumerate(terms):
            if need[k] is None or t >= need[k]:
                continue
            coefs = _images([v for _, v in ts], p, E)
            total = sum(c[:, None, None] * reduce(lambda A, ch: A @ letter[ch] % p, w, eye)
                        for c, (w, _) in zip(coefs, ts))
            nonzero[k] |= bool((np.asarray(total) % p).any())
    return [(m, None if m is None else not nz) for m, nz in zip(need, nonzero)]


def _polys():
    out = list(identity_coefficients().values())
    for which in ("defining", "zj"):
        out += list(relation_differences(which).values())
    return out


def _bumped(rep, name):
    mats = {"X": rep.X, "Zinv": rep.Zinv}
    bumped = [list(row) for row in mats[name]]
    i, j = (1, 0) if name == "X" else (rep.dim - 1, rep.dim - 1)
    bumped[i][j] = bumped[i][j] + 1
    mats[name] = bumped
    return Representation(rep.ctx, rep.dim, 1, dict(rep.params), "exact",
                          mats["X"], rep.Y, rep.Z, mats["Zinv"])


def _scaled(rep, k):
    """X k and Y / k: an automorphism of the algebra, so every relation still
    holds, while the bounds grow with k."""
    return Representation(rep.ctx, rep.dim, 1, dict(rep.params), "exact",
                          [[a * k for a in row] for row in rep.X],
                          [[a * Fraction(1, k) for a in row] for row in rep.Y], rep.Z, rep.Zinv)


def test_the_primes_are_the_ones_found_by_trial_division():
    for Q in (31, 45, 63, 101):
        assert [p for p, *_ in RootContext(1, Q).split_primes(3)] == _split_primes(Q, 3)


@pytest.mark.parametrize("Q", [31, 45, 63, 101])
def test_certified_zeros_agree_with_the_plain_integer_reference(Q):
    rng = random.Random(Q)
    units = [P for P in range(1, Q) if math.gcd(P, Q) == 1]
    polys = _polys()
    for r in rng.sample(range(1, 6), 3):
        rep = build_family1(RootContext(rng.choice(units), Q), r, rng.choice((1, -1)))
        bumped = _bumped(rep, rng.choice(("X", "Zinv")))
        for case in (rep, bumped, _scaled(rep, 3 ** 5)):
            got = _reference(polys, case)
            verdicts = [verdict for _, verdict in got]
            assert all(m for m, _ in got)
            assert certified_zeros(polys, case) == verdicts
            assert (False in verdicts) == (case is bumped)
        assert max(m for m, _ in got) >= 2   # the scaled copy needs several primes


@pytest.mark.parametrize("Q", [31, 63, 101])
def test_split_images_agree_with_the_plain_integer_evaluation(Q):
    ctx = RootContext(1, Q)
    rng = random.Random(7 * Q)
    m, lim = 3, (1 << 62) // Q

    def values(bound, count):
        return [CycloNum(ctx, [rng.randint(-bound, bound) for _ in range(ctx.degree)],
                         rng.randint(1, 10 ** 6)) for _ in range(count)]

    small = values(lim - 1, 5)                  # int64 packs, coefficients near the limit
    big = small[:2] + values(1 << 80, 2)        # object packs
    gauss = [GaussCyclo(a, b) for a, b in zip(small, big)] + [GaussCyclo(big[3], ctx.zero())]
    integral = [CycloNum(ctx, a.coeffs, 1) for a in small]    # no inverse to apply
    primes = _split_primes(Q, m)
    for vals, dtype, wide in ((small, np.int64, False), (big, object, False),
                              (small, np.int64, True), (gauss, object, True),
                              (integral, np.int64, False)):
        packed = pack(vals, ctx)
        assert packed[0].dtype == dtype
        want = []
        for v in vals:
            row = []
            for p in primes:
                E = _powers(p, Q, ctx.degree)
                iota = _root_of_order(p, 4)
                re, im = (v.re, v.im) if isinstance(v, GaussCyclo) else (v, ctx.zero())
                (a,), (b,) = _images([re], p, E), _images([im], p, E)
                row += ([x for pair in zip((a + iota * b) % p, (a - iota * b) % p)
                         for x in pair] if wide else list(a))
            want.append(row)
        assert split_images(packed, ctx, m, wide).tolist() == want, (dtype, wide)
