"""Correlator recursion tests.

Key oracles:
* unit-field contraction: summing U^{i,p}_j over j gives u_i^{(p+1)},
  because the unit direction of the flow is plain d/dx;
* the leg-sum identity, which rewrites the sum of a correlator over its
  last index through the total x-derivative plus Christoffel
  bookkeeping -- an independent consequence of the recursion's origin;
* order-independence: building an entry by appending indices in a
  different order gives pointwise-equal expressions.
"""

import random

import pytest

from frobg2 import expr as ex
from frobg2.algebra import Algebra, random_context
from frobg2.correlators import CorrelatorTable
from frobg2.expr import ZERO, add, const, h, jet, mul, neg, pow_, sub, u


def _g_gradient_christoffel_form(table, i):
    """The G-function gradient via Gamma_ki = Gamma^k_{ki}."""
    alg = table.alg
    terms = []
    for k in alg.indices():
        if k == i:
            continue
        gki = alg.christoffel(k, k, i)
        gik = alg.christoffel(i, i, k)
        terms.append(mul(const("1/2"), sub(u(i), u(k)), gki, gik))
        terms.append(mul(const("-1/24"), sub(gki, gik)))
    return add(*terms) if terms else ZERO


@pytest.fixture(scope="module")
def t2():
    return CorrelatorTable(Algebra(2))


@pytest.fixture(scope="module")
def t3():
    return CorrelatorTable(Algebra(3))


class TestU:
    def test_base(self, t3):
        assert t3.u_jet_coeff(1, 0, 2) is ZERO
        assert t3.u_jet_coeff(1, 0, 1) is jet(1, 1)

    def test_unit_field_contraction(self, t3):
        rng = random.Random(101)
        for p in (1, 2, 3):
            for i in (1, 2, 3):
                s = add(*[t3.u_jet_coeff(i, p, j) for j in (1, 2, 3)])
                for _ in range(5):
                    ctx = random_context(3, rng)
                    assert ctx.evaluate(s) == ctx.evaluate(jet(i, p + 1))

    def test_n1_reduces_to_plain_jets(self):
        t1 = CorrelatorTable(Algebra(1))
        for p in (0, 1, 2, 3):
            assert t1.u_jet_coeff(1, p, 1) is jet(1, p + 1)


class TestC:
    def test_base_cases(self, t3):
        assert t3.correlator_C((1, 1, 1)) is mul(pow_(h(1), 2), jet(1, 1))
        assert t3.correlator_C((1, 2, 3)) is ZERO
        assert t3.correlator_C((1, 1, 2)) is ZERO

    def test_length_bounds(self, t2):
        with pytest.raises(ValueError):
            t2.correlator_C((1, 1))
        with pytest.raises(ValueError):
            t2.correlator_C((1,) * 7)

    def test_symmetry_under_reordering(self, t2):
        rng = random.Random(55)
        tuples = [(1, 1, 2, 2), (2, 1, 2, 1, 1), (1, 2, 2, 1)]
        for t in tuples:
            ref = t2.correlator_C(t)
            alt = t2.correlator_ordered(t, "C")
            for _ in range(5):
                ctx = random_context(2, rng)
                assert ctx.evaluate(ref) == ctx.evaluate(alt)

    def test_leg_sum_identity(self, t2):
        # sum_j C_{t,j} = total_x(C_t) - sum_{pos,s} C_{..s..} sum_j Gamma^s_{i_pos j} u_{j,x}
        rng = random.Random(77)
        alg = t2.alg
        for t in [(1, 1, 1), (1, 1, 2, 2)]:
            lhs = add(*[t2.correlator_C(t + (j,)) for j in alg.indices()])
            terms = [alg.total_x(t2.correlator_C(t))]
            for pos in range(len(t)):
                for s in alg.indices():
                    inner = add(
                        *[
                            mul(alg.christoffel(s, t[pos], j), jet(j, 1))
                            for j in alg.indices()
                        ]
                    )
                    if inner is ZERO:
                        continue
                    repl = t[:pos] + (s,) + t[pos + 1:]
                    Xs = t2.correlator_C(repl)
                    if Xs is not ZERO:
                        terms.append(neg(mul(Xs, inner)))
            rhs = add(*terms)
            for _ in range(5):
                ctx = random_context(2, rng)
                assert ctx.evaluate(lhs) == ctx.evaluate(rhs)


class TestD:
    def test_n1_base(self):
        t1 = CorrelatorTable(Algebra(1))
        d = t1.correlator_D((1,))
        # u_xx/(24 u_x)
        want = mul(ex.const("1/24"), jet(1, 2), pow_(jet(1, 1), -1))
        assert d is want

    def test_hand_assembly_n2(self, t2):
        # direct assembly: D_i = u_{i,x} dG/du_i + sum_j U^{j,1}_i/(24 u_{j,x})
        rng = random.Random(31)
        for i in (1, 2):
            hand = add(
                mul(jet(i, 1), t2.g_gradient(i)),
                *[
                    mul(ex.const("1/24"), t2.u_jet_coeff(j, 1, i), pow_(jet(j, 1), -1))
                    for j in (1, 2)
                ],
            )
            built = t2.correlator_D((i,))
            for _ in range(5):
                ctx = random_context(2, rng)
                assert ctx.evaluate(hand) == ctx.evaluate(built)

    def test_symmetry(self, t2):
        rng = random.Random(63)
        ref = t2.correlator_D((1, 2))
        alt = t2.correlator_ordered((2, 1), "D")
        for _ in range(5):
            ctx = random_context(2, rng)
            assert ctx.evaluate(ref) == ctx.evaluate(alt)


class TestGGradient:
    def test_n1_zero(self):
        t1 = CorrelatorTable(Algebra(1))
        assert t1.g_gradient(1) is ZERO

    def test_two_forms_agree(self, t3):
        rng = random.Random(87)
        for i in (1, 2, 3):
            a = t3.g_gradient(i)
            b = _g_gradient_christoffel_form(t3, i)
            for _ in range(10):
                ctx = random_context(3, rng)
                assert ctx.evaluate(a) == ctx.evaluate(b)


class TestEdgeWeight:
    def test_value(self, t2):
        rng = random.Random(99)
        ctx = random_context(2, rng)
        w = t2.edge_weight(1)
        assert ctx.evaluate(w) == 1 / (ctx.hs[0] ** 2 * ctx.jets[(1, 1)])
