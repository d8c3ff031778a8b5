"""Derivation-rule tests.

The rule set is validated two ways: internal consistency (mixed
partials commute, partial_u commutes with total_x, evaluation is a ring
homomorphism) and an external finite-difference-free oracle: for the
n=2 polynomial-singularity parametrization, h and gamma are explicit
functions of the critical points, so du-derivatives can be computed by
sympy via the parameter Jacobian and compared with the rule output.
"""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from frobg2 import expr as ex
from frobg2 import numeric
from frobg2.algebra import Algebra, EvalContext, random_context
from frobg2.expr import add, div, dump, gamma, h, jet, mul, pow_, sub, u


@pytest.fixture(scope="module")
def alg3():
    return Algebra(3)


class TestConstruction:
    def test_interning(self):
        assert u(1) is u(1)
        assert add(u(1), u(2)) is add(u(2), u(1))
        assert mul(u(1), u(2), u(1)) is mul(pow_(u(1), 2), u(2))

    def test_gamma_symmetry(self):
        assert gamma(1, 2) is gamma(2, 1)
        assert gamma(1, 1) is ex.ZERO

    def test_like_terms(self):
        e = add(mul(ex.const(2), u(1)), mul(ex.const(3), u(1)))
        assert e is mul(ex.const(5), u(1))
        assert sub(u(1), u(1)) is ex.ZERO

    def test_pow_folding(self):
        assert pow_(pow_(u(1), 2), 3) is pow_(u(1), 6)
        assert pow_(mul(u(1), u(2)), -1) is mul(pow_(u(1), -1), pow_(u(2), -1))

    def test_dump_streams_deep_dags(self):
        # nested deeper than the recursion limit, and longer than one chunk
        e = u(1)
        for k in range(3000):
            e = add(mul(e, u(2)), u(k % 5 + 3))
        chunks = []
        dump(e, chunks.append)
        assert len(chunks) > 1
        text = "".join(chunks)
        assert text == dump(e)
        assert text.count("(+ ") == text.count("(* ") == 3000

    def test_hash_collisions(self):
        # CPython hashes -1 and -2 alike, so these distinct nodes share a
        # structural hash; siblings that tie keep their creation order
        assert ex.const(-1) is not ex.const(-2)
        assert ex.const(-1).shash == ex.const(-2).shash
        assert pow_(h(1), -1) is not pow_(h(1), -2)
        assert pow_(h(1), -1).shash == pow_(h(1), -2).shash

    def test_save_load_roundtrip(self, monkeypatch):
        # a kept DAG is saved in sid order and loads as the same nodes,
        # also when nested deeper than the recursion limit; load keeps
        # it in the same order without walking it
        deep = u(1)
        for k in range(3000):
            deep = add(mul(deep, u(2)), u(k % 5 + 3))
        small = add(mul(ex.const(Fraction(-3, 7)), gamma(1, 2), pow_(h(1), -2)),
                    div(jet(2, 3), sub(u(1), u(2))))
        for e in (small, deep):
            ex.keep_schedule(e)
            kept = ex._schedules[e]
            sids = [node.sid for node in kept[0]]
            assert sids == sorted(sids) and sids[-1] == e.sid
            chunks = []
            ex.save(e, chunks.append)
            del ex._schedules[e]
            with monkeypatch.context() as m:
                m.setattr(ex, "_postorder", None)
                assert ex.load("".join(chunks)) is e
            assert ex._schedules.pop(e) == kept  # not kept for the rest of the session


class TestRules:
    def test_dgamma_distinct(self, alg3):
        # the coordinate derivative of gamma_12 in the third direction
        assert alg3.partial_u(gamma(1, 2), 3) is mul(gamma(1, 3), gamma(3, 2))

    def test_jet_free_of_u(self, alg3):
        assert alg3.partial_u(jet(2, 1), 2) is ex.ZERO

    def test_partial_jet(self, alg3):
        e = pow_(jet(1, 1), 2)
        assert alg3.partial_jet(e, 1, 1) is mul(ex.const(2), jet(1, 1))
        assert alg3.partial_jet(h(1), 1, 1) is ex.ZERO

    def test_total_x_basics(self, alg3):
        assert alg3.total_x(u(2)) is jet(2, 1)
        assert alg3.total_x(jet(1, 2)) is jet(1, 3)

    def test_christoffel_cases(self, alg3):
        assert alg3.christoffel(1, 1, 2) is mul(gamma(1, 2), div(h(2), h(1)))
        assert alg3.christoffel(3, 1, 2) is ex.ZERO
        assert alg3.christoffel(2, 1, 1) is ex.neg(mul(gamma(1, 2), div(h(1), h(2))))

    def test_mixed_partials(self, alg3):
        rng = random.Random(5)
        exprs = [h(1), gamma(1, 2), mul(h(1), h(2)), mul(gamma(1, 3), h(2))]
        for e in exprs:
            for j, k in [(1, 2), (2, 3), (1, 3), (1, 1)]:
                a = alg3.partial_u(alg3.partial_u(e, j), k)
                b = alg3.partial_u(alg3.partial_u(e, k), j)
                for _ in range(10):
                    ctx = random_context(3, rng)
                    assert ctx.evaluate(a) == ctx.evaluate(b)

    def test_partial_u_commutes_with_total_x(self, alg3):
        rng = random.Random(9)
        exprs = [h(2), gamma(1, 2), mul(h(1), gamma(2, 3), jet(1, 1))]
        for e in exprs:
            for k in (1, 2, 3):
                a = alg3.partial_u(alg3.total_x(e), k)
                b = alg3.total_x(alg3.partial_u(e, k))
                for _ in range(5):
                    ctx = random_context(3, rng)
                    assert ctx.evaluate(a) == ctx.evaluate(b)

    def test_evaluation_ring_homomorphism(self, alg3):
        rng = random.Random(3)
        e1 = add(mul(h(1), gamma(1, 2)), jet(2, 2))
        e2 = sub(pow_(h(2), -2), u(3))
        for _ in range(5):
            ctx = random_context(3, rng)
            assert ctx.evaluate(mul(e1, e2)) == ctx.evaluate(e1) * ctx.evaluate(e2)
            assert ctx.evaluate(add(e1, e2)) == ctx.evaluate(e1) + ctx.evaluate(e2)

    def test_exact_value_beyond_float_range(self):
        # exact points keep no magnitude stats, so a constant above the
        # float range evaluates exactly instead of overflowing
        ctx = random_context(2, random.Random(1))
        assert ctx.kernel is ex.EXACT
        got = ctx.evaluate(add(ex.const(10**400), u(1)))
        assert got == 10**400 + ctx.us[0]
        assert isinstance(got, Fraction)

    def test_numeric_stats_overflow_reads_inf(self):
        ctx = EvalContext(1, [mpmath.mpf(1)], [mpmath.mpf(1)], {}, {},
                          numeric.NumericKernel(256))
        ctx.evaluate(add(ex.const(10**400), u(1)))
        assert ctx.kernel.max_mag == float("inf")
        assert not ctx.kernel.passes(mpmath.mpf(0))


class TestParametrizedOracle:
    """n=2 unfolding z^3: u_i, h_i, gamma_12 explicit in the critical
    points (r, s), so du-derivatives come from sympy via the Jacobian."""

    def _setup(self, rvals):
        r, s = sympy.symbols("r s")
        z = sympy.Symbol("z")
        lam = z**3 - sympy.Rational(3, 2) * (r + s) * z**2 + 3 * r * s * z
        u1 = lam.subs(z, r)
        u2 = lam.subs(z, s)
        lpp = sympy.diff(lam, z, 2)
        h1 = 1 / sympy.sqrt(lpp.subs(z, r))
        h2 = 1 / sympy.sqrt(lpp.subs(z, s))
        g12 = h1 * h2 / (r - s) ** 2
        J = sympy.Matrix([[sympy.diff(u1, r), sympy.diff(u1, s)],
                          [sympy.diff(u2, r), sympy.diff(u2, s)]])
        Jinv = J.inv()
        subs = {r: rvals[0], s: rvals[1]}
        return (r, s), (u1, u2, h1, h2, g12), Jinv, subs

    def _du(self, f, params, Jinv, subs, j):
        r, s = params
        df = sympy.diff(f, r) * Jinv[0, j - 1] + sympy.diff(f, s) * Jinv[1, j - 1]
        return complex(sympy.N(df.subs(subs), 40))

    def test_h_and_gamma_rules(self):
        alg = Algebra(2)
        rng = random.Random(41)
        for _ in range(3):
            rv = (Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                  Fraction(-rng.randint(1, 9), rng.randint(1, 4)))
            params, (u1, u2, h1, h2, g12), Jinv, subs = self._setup(rv)
            vals = {
                "u1": u1, "u2": u2, "h1": h1, "h2": h2, "g12": g12,
            }
            num = {k: complex(sympy.N(v.subs(subs), 40)) for k, v in vals.items()}
            ctx = EvalContext(
                2,
                [mpmath.mpc(num["u1"]), mpmath.mpc(num["u2"])],
                [mpmath.mpc(num["h1"]), mpmath.mpc(num["h2"])],
                {(1, 2): mpmath.mpc(num["g12"])},
                {(i, p): mpmath.mpf(1) for i in (1, 2) for p in (1, 2)},
                numeric.NumericKernel(256),
            )
            checks = [
                (h(1), h1), (h(2), h2), (gamma(1, 2), g12),
            ]
            for e, f in checks:
                for j in (1, 2):
                    got = ctx.evaluate(alg.partial_u(e, j))
                    want = self._du(f, params, Jinv, subs, j)
                    # comparison goes through float64 complex, hence 1e-12
                    assert abs(complex(got) - want) < 1e-12 * (1 + abs(want))
