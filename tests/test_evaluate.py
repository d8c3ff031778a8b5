"""Evaluation-kernel tests: numeric evaluation and its magnitude stats
are bit-identical to the plain fold that takes ``float(abs())`` of every
addend and lets mpmath convert a rational operand on every use."""

import random
from fractions import Fraction

import mpmath
import pytest

from frobg2 import expr as ex
from frobg2.algebra import Algebra
from frobg2.families import FamilySpec, sample
from frobg2.genus2 import g2_function, o_difference_graphs


class _ReferenceStats:
    """The magnitude fold that reads every addend."""

    def __init__(self):
        self.max_mag = 0.0

    def note(self, v):
        try:
            m = float(abs(v))
        except (TypeError, ValueError):
            return
        except OverflowError:
            m = float("inf")
        if m > self.max_mag:
            self.max_mag = m


def _reference_evaluate(e, gen_value, cache, stats):
    for node in ex._postorder(e):
        if node in cache:
            continue
        op = node.op
        if op == ex.OP_CONST:
            v = node.args[0]
        elif op == ex.OP_GEN:
            v = gen_value(node.args)
        elif op == ex.OP_ADD:
            it = iter(node.args)
            v = cache[next(it)]
            stats.note(v)
            for c in it:
                cv = cache[c]
                stats.note(cv)
                v = v + cv
        elif op == ex.OP_MUL:
            it = iter(node.args)
            v = cache[next(it)]
            for c in it:
                v = v * cache[c]
        else:
            b, k = node.args
            v = cache[b] ** k
        cache[node] = v
    return cache[e]


class TestNumericEvaluation:
    @pytest.mark.parametrize("spec", [FamilySpec.ApqOrbifold(2, 2), FamilySpec.DrOrbifold(1)],
                             ids=lambda s: s.label)
    def test_bit_identical_to_reference(self, spec):
        alg = Algebra(4)
        exprs = [g2_function(alg), o_difference_graphs(alg)]
        for seed in (1, 2):
            point = sample(spec, seed=seed)
            with mpmath.workprec(256 + 64):
                ctx = point.context()
                ref_cache, ref_stats = {}, _ReferenceStats()
                for e in exprs:
                    got = ctx.evaluate(e)
                    want = _reference_evaluate(e, ctx.gen_value, ref_cache, ref_stats)
                    assert got._mpc_ == want._mpc_
                    assert ctx.stats.max_mag == ref_stats.max_mag
            assert ref_stats.max_mag > 1  # the filter had a maximum to work against

    def test_fraction_meets_mpmath_both_sides(self):
        # a rational first operand, a rational after an mpc, a rational
        # sum before an mpc, and mpf operands, in sums and products
        x = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(2) / 7)
        y = mpmath.mpf(5) / 11
        values = {(ex.GK_U, 1, 0): x, (ex.GK_U, 2, 0): y,
                  (ex.GK_JET, 1, 1): Fraction(3, 7), (ex.GK_JET, 1, 2): Fraction(-5, 9)}
        j1, j2 = ex.jet(1, 1), ex.jet(1, 2)
        terms = [
            ex.add(ex.const(Fraction(1, 3)), ex.u(1)),
            ex.add(j1, j2, ex.u(1), ex.u(2)),
            ex.mul(ex.const(Fraction(2, 3)), ex.u(1), ex.u(2)),
            ex.mul(ex.const(Fraction(-7, 5)), j1, ex.u(2)),
            ex.mul(j1, j2),
            ex.add(ex.mul(ex.const(Fraction(1, 3)), j1), ex.mul(j2, ex.u(1)), ex.u(2)),
        ]
        for e in terms:
            with mpmath.workprec(200):
                stats, ref = ex.EvalStats(), _ReferenceStats()
                got = ex.evaluate(e, values.__getitem__, {}, stats)
                want = _reference_evaluate(e, values.__getitem__, {}, ref)
            assert type(got) is type(want)
            assert getattr(got, "_mpc_", getattr(got, "_mpf_", got)) == \
                getattr(want, "_mpc_", getattr(want, "_mpf_", want))
            assert stats.max_mag == ref.max_mag


def _random_part(rng):
    """An mpf part: zero, inf, nan, or a mantissa at a small binary
    exponent, so that equal exponents and powers of two are common."""
    kind = rng.random()
    if kind < 0.1:
        return mpmath.mpf(0)
    if kind < 0.13:
        return rng.choice([mpmath.inf, -mpmath.inf, mpmath.nan])
    man = rng.choice([1, 3, 255, 2**53 + 1, 2**200 - 1, rng.getrandbits(80) | 1])
    return rng.choice([1, -1]) * mpmath.ldexp(mpmath.mpf(man), rng.randint(-6, 6) - man.bit_length())


def _random_addend(rng):
    kind = rng.random()
    if kind < 0.6:
        return mpmath.mpc(_random_part(rng), _random_part(rng))
    if kind < 0.75:
        return _random_part(rng)
    if kind < 0.95:
        return Fraction(rng.randint(-300, 300), rng.randint(1, 100))
    return Fraction(rng.choice([1, -1]) * 10**400, rng.randint(1, 7))


class TestEvalStats:
    def test_same_max_mag_as_reading_every_addend(self):
        rng = random.Random(5)
        with mpmath.workprec(256):
            for _ in range(400):
                stats, ref = ex.EvalStats(), _ReferenceStats()
                for _ in range(rng.randint(1, 25)):
                    v = _random_addend(rng)
                    stats.note(v)
                    ref.note(v)
                    assert stats.max_mag == ref.max_mag

    def test_edge_cases(self):
        with mpmath.workprec(256):
            cases = [
                [mpmath.mpc(0), mpmath.mpc(0, 3), mpmath.mpc(-5, 0)],
                # |re| and |im| below the same power of two as max_mag
                [mpmath.mpc(1), mpmath.mpc("1.9", "1.9"), mpmath.mpc("0.75", "0.75")],
                [mpmath.mpc(4), mpmath.mpc("1.5", "1.5"), mpmath.mpc("2.9", "2.9")],
                [mpmath.mpc(1), mpmath.mpc(mpmath.nan, 0), mpmath.mpc(0.5)],
                [mpmath.mpc(1), mpmath.mpc(mpmath.inf, 0), mpmath.mpc(2**100)],
                [Fraction(10**400), mpmath.mpc(2), Fraction(3)],
                [mpmath.mpf(3), mpmath.mpc(0, "3.5"), Fraction(-7, 2)],
                [mpmath.mpc(2) ** 2000, mpmath.mpc(1)],
            ]
            for seq in cases:
                stats, ref = ex.EvalStats(), _ReferenceStats()
                for v in seq:
                    stats.note(v)
                    ref.note(v)
                    assert stats.max_mag == ref.max_mag, seq
