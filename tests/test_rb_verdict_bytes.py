"""Failing Rota-Baxter verdicts are byte-identical to plain arithmetic.

The sparse storage skips the scalar arithmetic of the interned ±1 (see
`linalg`).  Here Π of the tensor squares of sweedler4 and group:S3, on
both sides, has entries moved, and at weights -1, 0, 1 and 2 the `repr`s
of `check_rb_algebra`, `check_rb_coalgebra` and `check_rb_bialgebra` must
equal the verdicts built from a residual computed in this file with plain
`Fraction` arithmetic on dicts, basis input by basis input.
"""

import random
from fractions import Fraction

import pytest

from rbhopf import (Mat, builtin, check_rb_algebra, check_rb_bialgebra,
                    check_rb_coalgebra, pi_operator, tensor_square_projection)
from rbhopf.rb import RBBialgebraVerdict, RBVerdict
from rbhopf.structures import DefectReport

WEIGHTS = (-1, 0, 1, 2)


def moved(op: Mat, seed: int) -> Mat:
    """`op` with `seed` entries moved to seeded positions (added to what
    is there); seed 0 is `op` itself."""
    rng = random.Random(seed)
    terms = dict(op.terms)
    n = op.rows
    for _ in range(seed):
        key = rng.choice(sorted(terms))
        target = (rng.randrange(n), rng.randrange(n))
        terms[target] = terms.get(target, 0) + terms.pop(key)
    return Mat.from_terms(op.field, op.dims, terms)


def add(acc: dict, key, value):
    acc[key] = acc.get(key, Fraction(0)) + value


def combine(*parts) -> dict:
    """Σ c·v over (c, v) pairs of a scalar and a dict vector, zeros dropped."""
    out: dict = {}
    for c, vec in parts:
        for k, v in vec.items():
            add(out, k, c * v)
    return {k: v for k, v in out.items() if v}


def plain_maps(s, op: Mat):
    cols: dict = {}
    for (i, j), v in op.terms.items():
        cols.setdefault(j, {})[i] = v
    mul: dict = {}
    for (i, j, k), v in s.mul.terms.items():
        mul.setdefault((i, j), {})[k] = v
    comul: dict = {}
    for (i, j, k), v in s.comul.terms.items():
        comul.setdefault(i, {})[j, k] = v

    def apply(vec):
        out: dict = {}
        for j, c in vec.items():
            for i, v in cols.get(j, {}).items():
                add(out, i, v * c)
        return out

    def times(u, w):
        out: dict = {}
        for i, a in u.items():
            for j, b in w.items():
                for k, v in mul.get((i, j), {}).items():
                    add(out, k, a * b * v)
        return out

    def split(vec):
        out: dict = {}
        for i, c in vec.items():
            for jk, v in comul.get(i, {}).items():
                add(out, jk, v * c)
        return out

    def apply_at(pos, vec):
        out: dict = {}
        for key, c in vec.items():
            for i, v in cols.get(key[pos], {}).items():
                add(out, key[:pos] + (i,) + key[pos + 1:], v * c)
        return out

    return apply, times, split, apply_at


def plain_verdict(identity, side, weight, residuals: dict) -> RBVerdict:
    lam = Fraction(weight)
    entries = {}
    for prefix, res in residuals.items():
        for k, v in combine(*res(lam)).items():
            entries[prefix + (k if isinstance(k, tuple) else (k,))] = v
    if not entries:
        return RBVerdict(True, lam, side)
    entries = dict(sorted(entries.items()))
    return RBVerdict(False, lam, side,
                     DefectReport(identity, entries, next(iter(entries))))


def algebra_residuals(s, p: Mat) -> dict:
    """P(x)P(y) - P(xP(y)) - P(P(x)y) - λP(xy) per basis pair, as parts."""
    apply, times, _, _ = plain_maps(s, p)
    out = {}
    for x in range(s.dim):
        for y in range(s.dim):
            ex, ey = {x: Fraction(1)}, {y: Fraction(1)}
            px, py = apply(ex), apply(ey)
            base = combine((1, times(px, py)), (-1, apply(times(ex, py))),
                           (-1, apply(times(px, ey))))
            pxy = apply(times(ex, ey))
            out[x, y] = lambda lam, base=base, pxy=pxy: ((1, base),
                                                         (-lam, pxy))
    return out


def coalgebra_residuals(s, q: Mat) -> dict:
    """(Q⊗Q)Δ(c) - (id⊗Q)ΔQ(c) - (Q⊗id)ΔQ(c) - γΔQ(c) per basis c, as parts."""
    apply, _, split, apply_at = plain_maps(s, q)
    out = {}
    for c in range(s.dim):
        dc = split({c: Fraction(1)})
        dq = split(apply({c: Fraction(1)}))
        base = combine((1, apply_at(1, apply_at(0, dc))),
                       (-1, apply_at(1, dq)), (-1, apply_at(0, dq)))
        out[c,] = lambda lam, base=base, dq=dq: ((1, base), (-lam, dq))
    return out


@pytest.fixture(scope="module", params=["sweedler4", "group:S3"])
def projection(request):
    return tensor_square_projection(builtin(request.param))


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
@pytest.mark.parametrize("side", ["right", "left"])
def test_moved_pi_verdicts_match_plain_arithmetic(projection, side, seed):
    big = projection.big
    p = moved(pi_operator(projection, side), seed)
    q = moved(pi_operator(projection, "left" if side == "right" else "right"),
              seed + 1)
    alg, coalg = algebra_residuals(big, p), coalgebra_residuals(big, q)
    for w in WEIGHTS:
        want_a = plain_verdict("rb-algebra", "algebra", w, alg)
        want_c = plain_verdict("rb-coalgebra", "coalgebra", w, coalg)
        assert repr(check_rb_algebra(big, p, w)) == repr(want_a)
        assert repr(check_rb_coalgebra(big, q, w)) == repr(want_c)
        assert repr(check_rb_bialgebra(big, p, q, w, w)) == repr(
            RBBialgebraVerdict(want_a, want_c))
        if seed == 0 and w == -1:
            assert want_a.passed
