"""Evaluation-kernel tests: numeric evaluation and its magnitude stats
are bit-identical to the plain fold that takes ``float(abs())`` of every
addend and lets mpmath convert a rational operand on every use, the
numeric kernel's fused complex operations round as libmp's do, and
exact evaluation on integer numerator/denominator pairs gives the plain
fold's values, types and radical coefficient order, and a kept DAG's
values are released at their last use without moving any of them."""

import json
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import (
    from_man_exp, fzero, mpc_add, mpc_mul, mpc_mul_mpf, mpf_add, mpf_mul, mpf_pos, mpf_sub,
)

from frobg2 import expr as ex
from frobg2 import numeric
from frobg2.algebra import Algebra, EvalContext, ResampleNeeded, random_context
from frobg2.correlators import CorrelatorTable
from frobg2.families import FamilySpec, closed_form_o_difference, sample
from frobg2.genus2 import (
    decomposition_residual,
    f2_reference,
    g2_function,
    o_difference_graphs,
    relation_expression,
)
from frobg2.graphs import builtin, catalog_names, graph_function
from frobg2.radicals import RadicalElem, RadicalField


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


def _reference_evaluate(e, gen_value, cache, stats=None):
    """The plain left-to-right fold over the scalars' own operators."""
    note = stats.note if stats is not None else lambda v: None
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
            note(v)
            for c in it:
                cv = cache[c]
                note(cv)
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
    @pytest.mark.parametrize("spec,builds,seeds", [
        (FamilySpec.ApqOrbifold(2, 2), (g2_function, o_difference_graphs), (1, 2)),
        (FamilySpec.DrOrbifold(1), (g2_function, o_difference_graphs), (1, 2)),
        (FamilySpec.E6(), (g2_function, relation_expression), (1,)),
    ], ids=["Apq(2,2)", "Dr(1)", "E6"])
    def test_bit_identical_to_reference(self, spec, builds, seeds):
        alg = Algebra(spec.n)
        exprs = [build(alg) for build in builds]
        for seed in seeds:
            point = sample(spec, seed=seed)
            with mpmath.workprec(256 + 64):
                ctx = point.context()
                ref_cache, ref_stats = {}, _ReferenceStats()
                for e in exprs:
                    got = ctx.evaluate(e)
                    want = _reference_evaluate(e, ctx.gen_value, ref_cache, ref_stats)
                    assert got._mpc_ == want._mpc_
                    assert ctx.kernel.max_mag == ref_stats.max_mag
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
                stats, ref = numeric.NumericKernel(200 - numeric.GUARD_BITS), _ReferenceStats()
                got = ex.evaluate(e, values.__getitem__, {}, stats)
                want = _reference_evaluate(e, values.__getitem__, {}, ref)
            assert type(got) is type(want)
            assert getattr(got, "_mpc_", getattr(got, "_mpf_", got)) == \
                getattr(want, "_mpc_", getattr(want, "_mpf_", want))
            assert stats.max_mag == ref.max_mag


def _assert_same(got, want):
    """Same type, same value and, for a radical, the same coefficient order."""
    assert type(got) is type(want)
    if isinstance(want, mpmath.mpc):
        assert got._mpc_ == want._mpc_
    else:
        assert got == want
    if isinstance(want, RadicalElem):
        assert list(got.coeffs.items()) == list(want.coeffs.items())


def _check_exact(ctx, exprs):
    """ctx.evaluate agrees with the plain fold on every expression, in
    order, with both caches shared across the expressions; returns the
    values."""
    ref_cache = {}
    values = []
    for e in exprs:
        want = _reference_evaluate(e, ctx.gen_value, ref_cache)
        _assert_same(ctx.evaluate(e), want)
        values.append(want)
    return values


_SUM_FIELD = RadicalField([2, 3])


@st.composite
def _exact_sums(draw):
    """(values, a sum of two to six distinct generators): each addend is
    a generator or its inverse, times a constant or not, at a Fraction
    or a one-term RadicalElem.  Denominators are shared or coprime, an
    inverse of a negative value gives a negative one, and the masks are
    the same or differ."""
    values, terms = {}, []
    for i in range(1, draw(st.integers(2, 6)) + 1):
        q = Fraction(draw(st.integers(-40, 40).filter(bool)),
                     draw(st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10, 12, 15, 30])))
        mask = draw(st.sampled_from([None, 0, 1, 3]))  # None: a Fraction
        values[(ex.GK_U, i, 0)] = q if mask is None else _SUM_FIELD.element({mask: q})
        term = ex.pow_(ex.u(i), -1) if draw(st.booleans()) else ex.u(i)
        coeff = draw(st.sampled_from([1, 1, 2, Fraction(-5, 6)]))
        terms.append(ex.mul(ex.const(coeff), term))
    return values, ex.add(*terms)


def _is_zero(v):
    return v.is_zero() if isinstance(v, RadicalElem) else v == 0


class TestExactEvaluation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_points(self, n):
        alg = Algebra(n)
        table = CorrelatorTable(alg)
        exprs = [decomposition_residual(alg), f2_reference(alg), g2_function(alg)]
        exprs += [graph_function(builtin(name), table) for name in catalog_names()]
        rng = random.Random(n)
        for _ in range(2):
            values = _check_exact(random_context(n, rng), exprs)
            assert _is_zero(values[0])
            assert sum(1 for v in values if not _is_zero(v)) > len(values) // 2

    @pytest.mark.parametrize("spec", [
        FamilySpec.An(3), FamilySpec.An(4), FamilySpec.An(5),
        FamilySpec.Dn(4), FamilySpec.Dn(5),
        FamilySpec.TwoDim(Fraction(1, 3)), FamilySpec.TwoDim(Fraction(1, 6)),
    ], ids=lambda s: s.label)
    def test_family_points(self, spec):
        alg = Algebra(spec.n)
        table = CorrelatorTable(alg)
        o_diff = o_difference_graphs(alg)
        want = closed_form_o_difference(spec)
        # O1 and O2 alone are nonzero on the family
        exprs = [g2_function(alg), relation_expression(alg), o_diff,
                 ex.sub(o_diff, ex.const(want)),
                 graph_function(builtin("O1"), table), graph_function(builtin("O2"), table)]
        for seed in (1, 2):
            ctx = sample(spec, seed=seed).context()
            values = _check_exact(ctx, exprs)
            assert _is_zero(values[3])
            assert not _is_zero(values[4]) and not _is_zero(values[5])

    def test_radical_cases(self, monkeypatch):
        fld = RadicalField([2, 3])
        r2, r3 = fld.sqrt_gen(0), fld.sqrt_gen(1)
        values = {(ex.GK_U, 1, 0): r2 * Fraction(3, 4), (ex.GK_U, 2, 0): r3 * Fraction(-5, 2),
                  (ex.GK_U, 3, 0): fld.rational(Fraction(7, 3)),
                  (ex.GK_U, 4, 0): r2 * Fraction(-3, 4), (ex.GK_U, 5, 0): r2 * r3,
                  (ex.GK_JET, 1, 1): Fraction(2, 9), (ex.GK_JET, 1, 2): Fraction(-4, 5)}
        u1, u2, u3, u4, u5 = (ex.u(i) for i in range(1, 6))
        j1, j2 = ex.jet(1, 1), ex.jet(1, 2)
        fallback = [
            ex.add(u1, u2),                       # sqrt2 + sqrt3 monomials
            ex.add(u1, u2, u5, j1),               # four masks, in fold order
            ex.add(u1, u3, u4, u2, j1),           # masks cancel, then reappear
            ex.mul(ex.add(u1, u2), u5, j1),       # a two-term factor
            ex.pow_(u1, -2),                      # irrational monomial to -2
            ex.pow_(u5, 3),
        ]
        kernel = [
            ex.mul(u1, u2, u5, j1),               # shared radicands
            ex.add(u1, u4, j1),                   # sqrt2 cancels to a rational
            ex.add(u1, u4),                       # zero in the field
            ex.mul(ex.add(u1, u4), u2),
            ex.pow_(u3, -3),
            ex.add(ex.pow_(j2, -3), ex.mul(ex.pow_(j2, -1), u3), j1),
            ex.add(ex.mul(u1, u4), j1, u3),
        ]
        calls = []
        by_operators = ex._by_operators
        monkeypatch.setattr(ex, "_by_operators",
                            lambda node, cache: calls.append(node) or by_operators(node, cache))
        for e in fallback + kernel:
            calls.clear()
            want = _reference_evaluate(e, values.__getitem__, {})
            _assert_same(ex.evaluate(e, values.__getitem__), want)
            assert bool(calls) == (e in fallback), e

    def test_other_scalars(self):
        x = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(2) / 7)
        values = {(ex.GK_U, 1, 0): 3, (ex.GK_U, 2, 0): -4, (ex.GK_U, 3, 0): x,
                  (ex.GK_JET, 1, 1): Fraction(3, 7)}
        u1, u2, u3, j1 = ex.u(1), ex.u(2), ex.u(3), ex.jet(1, 1)
        exprs = [
            ex.add(u1, u2), ex.mul(u1, u2), ex.pow_(u1, 3), ex.pow_(u2, -2),
            ex.add(u1, j1), ex.mul(ex.const(Fraction(1, 3)), u1, u2),
            ex.add(u3, j1, u1), ex.mul(u3, j1, ex.pow_(u3, -1)),
        ]
        for e in exprs:
            with mpmath.workprec(200):
                want = _reference_evaluate(e, values.__getitem__, {})
                got = ex.evaluate(e, values.__getitem__)
            _assert_same(got, want)

    @given(_exact_sums())
    @settings(max_examples=150, deadline=None)
    def test_sums_by_operators(self, case):
        values, e = case
        _assert_same(ex.evaluate(e, values.__getitem__),
                     _reference_evaluate(e, values.__getitem__, {}))

    def test_sum_over_least_common_denominator(self, monkeypatch):
        # 1/6 + 1/10 + 1/15 = 1/3 is formed over 30, not over 6 * 10 * 15
        calls = []
        real = ex.gcd
        monkeypatch.setattr(ex, "gcd", lambda a, b: calls.append((a, b)) or real(a, b))
        values = {(ex.GK_U, i, 0): Fraction(1, d) for i, d in ((1, 6), (2, 10), (3, 15))}
        got = ex.evaluate(ex.add(ex.u(1), ex.u(2), ex.u(3)), values.__getitem__)
        assert got == Fraction(1, 3)
        assert max(abs(x) for call in calls for x in call) == 30

    @pytest.mark.parametrize("zero", [Fraction(0), RadicalField([2]).zero()],
                             ids=["Fraction", "RadicalElem"])
    def test_zero_to_negative_power_resamples(self, zero):
        ctx = EvalContext(1, [zero], [Fraction(1)], {}, {})
        with pytest.raises(ResampleNeeded):
            ctx.evaluate(ex.pow_(ex.u(1), -1))
        with pytest.raises(ZeroDivisionError):
            _reference_evaluate(ex.pow_(ex.u(1), -1), ctx.gen_value, {})


# a cache that records the most values it held at once, passed to one
# kept evaluation at a family point in a process of its own; prints the
# peak, the node count and the values left
_PEAK_CACHE = """
import json
import mpmath
from frobg2 import expr as ex
from frobg2.algebra import Algebra
from frobg2.families import FamilySpec, sample
from frobg2.genus2 import %s as build

class PeakCache(dict):
    peak = 0

    def __setitem__(self, node, value):
        dict.__setitem__(self, node, value)
        if len(self) > self.peak:
            self.peak = len(self)

spec = FamilySpec.%s()
e = build(Algebra(spec.n))
ctx = sample(spec, seed=1).context()
cache = PeakCache()
with mpmath.workprec(256 + 64):
    ex.evaluate(e, ctx.gen_value, cache, ctx.kernel)
print(json.dumps([cache.peak, ex.node_count(e), len(cache)]))
"""


def _walked(e, ctx, monkeypatch):
    """ctx.evaluate(e) with e's kept order and release plan hidden, so
    that e is walked afresh and keeps every value."""
    with monkeypatch.context() as m:
        m.setattr(ex, "_schedules", {})
        return ctx.evaluate(e)


class TestRelease:
    """A kept DAG's values are dropped from the cache at their last use
    in the kept order, and the values do not move."""

    @pytest.mark.parametrize("spec,build", [
        (FamilySpec.E6(), relation_expression), (FamilySpec.E7(), g2_function),
    ], ids=["E6 relation", "E7 G2"])
    def test_numeric_kept_equals_walk(self, spec, build, monkeypatch):
        e = build(Algebra(spec.n))
        point = sample(spec, seed=1)
        with mpmath.workprec(256 + 64):
            kept, walk = point.context(), point.context()
            got = kept.evaluate(e)
            want = _walked(e, walk, monkeypatch)
        assert got._mpc_ == want._mpc_
        assert kept.kernel.max_mag == walk.kernel.max_mag
        assert list(kept.cache) == [e]
        assert len(walk.cache) == ex.node_count(e)

    @pytest.mark.parametrize("family,build", [("E6", "relation_expression"),
                                              ("E7", "g2_function")],
                             ids=["E6 relation", "E7 G2"])
    def test_live_values_peak(self, python_process, family, build):
        # the live-value bound of the kept order, in a process that builds
        # the DAG first, as a CLI call does: there the kept order is the
        # order the build made the nodes in (a process that made some of
        # them earlier, for another DAG, keeps them earlier, and holds
        # them longer)
        res = python_process(["-c", _PEAK_CACHE % (build, family)])
        assert res.returncode == 0, res.stderr.decode()
        peak, nodes, left = json.loads(res.stdout)
        assert left == 1  # the root
        assert nodes > 8000 and peak <= 0.15 * nodes

    @pytest.mark.parametrize("case", ["residual n=3", "An(4) G2"])
    def test_exact_kept_equals_walk(self, case, monkeypatch):
        if case == "residual n=3":
            e = decomposition_residual(Algebra(3))
            point = random_context(3, random.Random(3))
            contexts = [EvalContext(3, point.us, point.hs, point.gammas, point.jets)
                        for _ in range(2)]
        else:
            e = g2_function(Algebra(4))
            point = sample(FamilySpec.An(4), seed=1)
            contexts = [point.context() for _ in range(2)]
        kept, walk = contexts
        _assert_same(kept.evaluate(e), _walked(e, walk, monkeypatch))
        assert list(kept.cache) == [e]

    def test_repeat_is_a_lookup(self):
        e = g2_function(Algebra(3))
        ctx = random_context(3, random.Random(4))
        value = ctx.evaluate(e)
        assert list(ctx.cache) == [e]

        def no_generators(args):
            raise AssertionError("a generator was read again")

        _assert_same(ex.evaluate(e, no_generators, ctx.cache), value)
        assert list(ctx.cache) == [e]

    def test_kept_after_held_values(self):
        # kept DAGs evaluated in turn on one point, after a walked
        # contraction that shares their nodes, give what each gives on a
        # fresh point; the residual's DAG holds g2_function's root
        alg = Algebra(3)
        g2, rel, res = g2_function(alg), relation_expression(alg), decomposition_residual(alg)
        walked = graph_function(builtin("Q3"), CorrelatorTable(alg))
        assert walked not in ex._schedules
        point = random_context(3, random.Random(5))

        def fresh():
            return EvalContext(3, point.us, point.hs, point.gammas, point.jets)

        assert set(ex._postorder(walked)) & set(ex._schedules[res][0]) - {walked}
        ctx = fresh()
        ctx.evaluate(walked)
        assert len(ctx.cache) == ex.node_count(walked)
        for e in (g2, rel, res):
            _assert_same(ctx.evaluate(e), fresh().evaluate(e))
        # g2_function's root was an operand in the residual's DAG, and
        # went at its last use there
        assert g2 in ex._schedules[res][0] and g2 not in ctx.cache
        assert {rel, res} <= set(ctx.cache)
        _assert_same(ctx.evaluate(g2), fresh().evaluate(g2))


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
                stats, ref = numeric.NumericKernel(256), _ReferenceStats()
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
                stats, ref = numeric.NumericKernel(256), _ReferenceStats()
                for v in seq:
                    stats.note(v)
                    ref.note(v)
                    assert stats.max_mag == ref.max_mag, seq


# ---------------------------------------------------------------------------
# the numeric kernel's fused operations against libmp


def _part(man, exp=0):
    """The mpf part man * 2**exp, normalized and not rounded."""
    return from_man_exp(man, exp)


@st.composite
def _parts(draw, prec):
    """An mpf part: zero, or a mantissa of up to 2 * prec bits (a power
    of two, all ones, a power of two plus one, or any) whose top bit is
    near 2**0 or more than 100 bits away from it."""
    kind = draw(st.sampled_from(["zero", "pow2", "ones", "pow2+1", "any", "any"]))
    if kind == "zero":
        return fzero
    bits = draw(st.integers(1, 2 * prec))
    man = {"pow2": 1, "ones": (1 << bits) - 1, "pow2+1": (1 << bits) + 1}.get(kind)
    if man is None:
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    top = draw(st.integers(-8, 8) | st.integers(101, 3 * prec) | st.integers(-3 * prec, -101))
    return _part(draw(st.sampled_from([man, -man])), top - man.bit_length())


@st.composite
def _operands(draw):
    prec = draw(st.sampled_from([53, 256, 320]))
    z, w = (draw(st.tuples(_parts(prec), _parts(prec))) for _ in range(2))
    return prec, z, w


def _far_cases(prec):
    """Operands more than 100 bits apart, where mpf_add only perturbs the
    larger by one unit at prec + 4 bits and so rounds otherwise than the
    exact sum would: below the round bit of ``near`` (2 * prec bits, just
    short of a tie) a smaller operand carries into that round bit."""
    near = (1 << (2 * prec - 1)) + (1 << (prec - 1)) - 1
    # as two parts: at prec = 320, a 640-bit mantissa at exponent 400 and
    # (1 << 639) | 1 at exponent 0
    s, t = _part(near, min(prec + 80, 2 * prec - 1)), _part((1 << (2 * prec - 1)) | 1)
    # as the exact products of mpc_mul's real part a*c - b*d, with
    # a = b = 2**prec - 1 and c = 2**(prec - 1) + 1, so that a*c == near
    a, c = (1 << prec) - 1, (1 << (prec - 1)) + 1
    return [
        ((s, _part(1)), (t, _part(-1, -500))),
        ((s, _part(-1)), (_part(-((1 << (2 * prec - 1)) | 1)), _part(1, 300))),
        ((_part(a), _part(-a)), (_part(c), _part(c, 2 - 2 * prec))),
        ((_part(-a), _part(a)), (_part(c), _part(c, 2 - 2 * prec))),
    ]


def _fused_cases(prec):
    """Hand-made (z, w) pairs: zero parts, powers of two and all-ones
    mantissas, exact cancellation, ties, and operands far apart."""
    one, ones = _part(1), _part((1 << prec) - 1)
    top = _part(1, prec)  # 2**prec + 1 and + 3 lie halfway between prec-bit values
    return [
        ((fzero, one), (ones, _part(1, -1))),
        ((ones, fzero), (fzero, fzero)),
        ((ones, _part(-5, 3)), (_part(-((1 << prec) - 1)), _part(5, 3))),  # z + (-z)
        ((ones, top), (top, ones)),  # a*c - b*d == 0
        ((top, _part(-1)), (one, one)),  # 2**prec + 1: even is down
        ((top, _part(-1)), (one, _part(3))),  # 2**prec + 3: even is up
        ((top, _part(3)), (one, one)),
        ((_part((1 << prec) + 1), _part((1 << prec) + 3)), (one, _part(1, 1))),
        ((ones, _part(1, -200)), (_part(1, 150), ones)),
    ] + _far_cases(prec)


def _check_fused(z, w, prec):
    assert numeric._cadd(z, w, prec) == mpc_add(z, w, prec, "n")
    assert numeric._cmul(z, w, prec) == mpc_mul(z, w, prec, "n")
    for x in w:
        assert numeric._cscale(z, x, prec) == mpc_mul_mpf(z, x, prec, "n")


class TestFusedOperations:
    """The numeric kernel's complex sum, complex product and complex
    times real product round the same bits as libmp's mpc_add, mpc_mul
    and mpc_mul_mpf at round-to-nearest."""

    @pytest.mark.parametrize("prec", [53, 256, 320])
    def test_cases(self, prec):
        for z, w in _fused_cases(prec):
            _check_fused(z, w, prec)

    @pytest.mark.parametrize("prec", [53, 256, 320])
    def test_far_apart_is_not_the_rounded_exact_sum(self, prec):
        # the far cases do reach the branch that rounds otherwise
        cases = _far_cases(prec)
        (s, _), (t, _) = cases[0]
        exact = mpf_add(s, t)  # prec=0: no rounding
        assert mpc_add(*cases[0], prec, "n")[0] != mpf_pos(exact, prec, "n")
        z, w = cases[2]
        exact = mpf_sub(mpf_mul(z[0], w[0]), mpf_mul(z[1], w[1]))
        assert mpc_mul(z, w, prec, "n")[0] != mpf_pos(exact, prec, "n")

    @given(_operands())
    @settings(max_examples=300, deadline=None)
    def test_random_operands(self, operands):
        prec, z, w = operands
        _check_fused(z, w, prec)
