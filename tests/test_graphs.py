"""Dual-graph tests.

The contraction machinery is validated against the published closed
forms of the boundary entries (Q1 as a 6-point sum with two
propagators, Q16 as a product of genus-one entries), against the
signed sum of ``graph_x_derivative``, and by the jet independence of
O1 - O2.  The covariant leg rule of ``graph_function`` is checked
against the plain leg loop it replaced.  The x-derivative identities
and the O1 - O2 closed form are checked in ``test_acceptance.py``.
"""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import mpmath
import pytest

from frobg2 import families, genus2
from frobg2.algebra import Algebra, random_context
from frobg2.correlators import CorrelatorTable
from frobg2.expr import ZERO, add, const, mul, sub
from frobg2.families import (
    FamilySpec,
    closed_form_o_difference,
    o_difference_check,
    relation_family_check,
    sample,
)
from frobg2.graphs import (
    DualGraph,
    builtin,
    canonicalize,
    catalog_names,
    enumerate_admissible,
    graph_function,
    graph_x_derivative,
    smooth_subdividers,
)
from frobg2.report import DEFAULT_PRECISION, DEFAULT_SEED, relative_tolerance


@pytest.fixture(scope="module")
def t2():
    return CorrelatorTable(Algebra(2))


@pytest.fixture(scope="module")
def admissible():
    return enumerate_admissible()


class TestStructure:
    def test_enumeration_computed_once(self, admissible):
        assert enumerate_admissible() is admissible
        assert isinstance(admissible, frozenset)

    def test_catalog_order_and_unknown_name(self):
        assert catalog_names() == (["Q%d" % i for i in range(1, 17)]
                                   + ["P%d" % i for i in range(1, 6)]
                                   + ["O1", "O2", "W1", "W2", "W3"])
        with pytest.raises(KeyError, match="unknown graph 'Z1'"):
            builtin("Z1")

    def test_edge_leg_vertex_count_relation(self, admissible):
        for g in admissible:
            assert g.n_edges == g.n_legs == g.n_vertices + g.first_betti() - 1

    def test_canonicalize_idempotent(self, admissible):
        for g in admissible:
            assert canonicalize(g) == g

    def test_subdivision_smoothing(self):
        # inserting a one-leg genus-0 vertex in the middle of an edge
        # does not change the canonical class
        g = builtin("Q2")
        sub = DualGraph.make(
            [0, 0, 0], [(0, 1), (0, 1), (0, 2), (1, 2)], [1, 2, 1]
        )
        assert smooth_subdividers(sub).n_vertices == 2
        assert canonicalize(sub) == canonicalize(g)

    def test_json_roundtrip(self):
        for name in catalog_names():
            g = builtin(name)
            d = json.loads(g.to_json())
            assert d == {"vertices": list(g.genera),
                         "edges": [list(e) for e in g.edges],
                         "legs": list(g.legs)}

    def test_dot_export_mentions_all_vertices(self):
        g = builtin("Q9")
        dot = g.to_dot()
        for v in range(g.n_vertices):
            assert "v%d" % v in dot


class TestContraction:
    def test_q1_published_form(self, t2):
        # Q1 = sum C_{i1 i2 j1 j1 j2 j2} / (h_{j1}^2 h_{j2}^2 u_{j1,x} u_{j2,x})
        idx = t2.alg.indices()
        terms = []
        for i1 in idx:
            for i2 in idx:
                for j1 in idx:
                    for j2 in idx:
                        c = t2.correlator_C(tuple(sorted((i1, i2, j1, j1, j2, j2))))
                        if c is ZERO:
                            continue
                        terms.append(mul(c, t2.edge_weight(j1), t2.edge_weight(j2)))
        direct = add(*terms)
        built = graph_function(builtin("Q1"), t2)
        rng = random.Random(11)
        for _ in range(5):
            ctx = random_context(2, rng)
            assert ctx.evaluate(direct) == ctx.evaluate(built)

    def test_q16_published_form(self, t2):
        # Q16 = sum_{i,j} D_i D_{ij} / (h_i^2 u_{i,x})
        idx = t2.alg.indices()
        terms = []
        for i in idx:
            for j in idx:
                di = t2.correlator_D((i,))
                dij = t2.correlator_D(tuple(sorted((i, j))))
                if di is ZERO or dij is ZERO:
                    continue
                terms.append(mul(di, dij, t2.edge_weight(i)))
        direct = add(*terms)
        built = graph_function(builtin("Q16"), t2)
        rng = random.Random(13)
        for _ in range(5):
            ctx = random_context(2, rng)
            assert ctx.evaluate(direct) == ctx.evaluate(built)

    def test_subdivision_preserves_function(self, t2):
        g = builtin("Q2")
        sub = DualGraph.make(
            [0, 0, 0], [(0, 1), (0, 1), (0, 2), (1, 2)], [1, 2, 1]
        )
        a = graph_function(g, t2)
        b = graph_function(sub, t2)
        rng = random.Random(17)
        for _ in range(5):
            ctx = random_context(2, rng)
            assert ctx.evaluate(a) == ctx.evaluate(b)

    def test_jet_degree_two(self, t2):
        # scaling u^{(p)} -> s^p u^{(p)} multiplies every entry by s^2
        rng = random.Random(23)
        s = Fraction(3)
        for name in ("Q1", "Q3", "Q13", "Q16", "Q7"):
            f = graph_function(builtin(name), t2)
            ctx = random_context(2, rng)
            base = ctx.evaluate(f)
            scaled_jets = {(i, p): s**p * v for (i, p), v in ctx.jets.items()}
            ctx2 = ctx.with_jets(scaled_jets)
            assert ctx2.evaluate(f) == s**2 * base


class TestXDerivative:
    def test_signed_sum_contract(self, t2):
        # total_x of a contraction equals the signed sum over the
        # leg-added and edge-subdivided graphs
        rng = random.Random(29)
        for name in ("Q13", "P1", "Q3"):
            g = builtin(name)
            lhs = t2.alg.total_x(graph_function(g, t2))
            parts = []
            for sign, gg in graph_x_derivative(g):
                f = graph_function(gg, t2)
                parts.append(f if sign > 0 else mul(const(-1), f))
            rhs = add(*parts)
            for _ in range(3):
                ctx = random_context(2, rng)
                assert ctx.evaluate(lhs) == ctx.evaluate(rhs)


class TestODifference:
    def test_jet_independent(self):
        # the difference depends on (u, h, gamma) only, so re-randomizing
        # the jets at a fixed base point leaves it unchanged
        t = CorrelatorTable(Algebra(2))
        diff = add(
            graph_function(builtin("O1"), t),
            mul(const(-1), graph_function(builtin("O2"), t)),
        )
        rng = random.Random(43)
        ctx = random_context(2, rng)
        v1 = ctx.evaluate(diff)
        jets2 = {k: v + Fraction(rng.randint(1, 50)) for k, v in ctx.jets.items()}
        ctx2 = ctx.with_jets(jets2)
        assert ctx2.evaluate(diff) == v1


# ---------------------------------------------------------------------------
# the covariant leg rule against the plain leg loop


def _perm_count(t):
    """Number of distinct orderings of the tuple t."""
    out = factorial(len(t))
    for k in set(t):
        out //= factorial(t.count(k))
    return out


def leg_loop(g, table):
    """graph_function as a plain leg loop: each vertex is summed over all
    sorted leg index tuples, weighted by their number of orderings.  It
    needs correlators of the full vertex valence, up to six indices."""
    n = table.alg.n
    incident = [[] for _ in range(g.n_vertices)]
    for eid, (a, b) in enumerate(g.edges):
        incident[a].append(eid)
        incident[b].append(eid)
    vertex_cache = {}

    def vertex_tensor(v, edge_idx):
        key = (v, edge_idx)
        if key not in vertex_cache:
            corr = table.correlator_C if g.genera[v] == 0 else table.correlator_D
            vertex_cache[key] = add(*[
                mul(const(_perm_count(legs)), corr(tuple(sorted(edge_idx + legs))))
                for legs in combinations_with_replacement(range(1, n + 1), g.legs[v])
            ])
        return vertex_cache[key]

    total = []
    for assign in product(range(1, n + 1), repeat=g.n_edges):
        factors = [vertex_tensor(v, tuple(sorted(assign[e] for e in incident[v])))
                   for v in range(g.n_vertices)]
        factors += [table.edge_weight(assign[e]) for e in range(g.n_edges)]
        total.append(mul(*factors))
    return add(*total)


def _headroom(expr, point, want, precision=DEFAULT_PRECISION):
    """log2(tolerance * scale / |residual|) of ``expr - want`` at a
    numeric family point, after checking that the residual passes."""
    with mpmath.workprec(precision + 64):
        ctx = point.context()
        val = ctx.evaluate(expr) - want
        assert families._residual_ok(val, precision, ctx.kernel.max_mag)
        if val == 0:
            return mpmath.inf
        bound = relative_tolerance(precision) * max(1.0, float(ctx.kernel.max_mag))
        return float(mpmath.log(bound / abs(val), 2))


@pytest.fixture(scope="module")
def both_rules():
    """(graph_function, leg_loop) of a catalog graph at n, built once
    per module on one CorrelatorTable per n."""
    tables = {}
    built = {}

    def get(name, n):
        if n not in tables:
            tables[n] = CorrelatorTable(Algebra(n))
        if (name, n) not in built:
            g = builtin(name)
            built[(name, n)] = (graph_function(g, tables[n]), leg_loop(g, tables[n]))
        return built[(name, n)]

    return get


class TestLegRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_leg_loop_exactly(self, both_rules, n):
        rng = random.Random(53 + n)
        ctxs = [random_context(n, rng) for _ in range(2)]
        for name in catalog_names():
            new, old = both_rules(name, n)
            for ctx in ctxs:
                assert ctx.evaluate(new) == ctx.evaluate(old), name

    def test_no_correlator_beyond_four_indices(self):
        # the relation at n = 3 used to need all six-point correlators
        t = CorrelatorTable(Algebra(3))
        for name in genus2.RELATION_WEIGHTS:
            graph_function(builtin(name), t)
        assert max(len(k) for k in t._c) <= 4

    @pytest.mark.parametrize("spec", [FamilySpec.ApqOrbifold(2, 2),
                                      FamilySpec.DrOrbifold(1)],
                             ids=lambda s: s.label)
    def test_numeric_headroom(self, both_rules, spec):
        # a differently shaped DAG rounds differently; every residual
        # must pass and keep its headroom to within 8 bits
        relation = [[mul(const(c), f) for f in both_rules(name, spec.n)]
                    for name, c in genus2.RELATION_WEIGHTS.items()]
        o1, o2 = both_rules("O1", spec.n), both_rules("O2", spec.n)
        want = closed_form_o_difference(spec)
        pairs = [
            (add(*[new for new, _ in relation]), add(*[old for _, old in relation]), 0),
            (sub(o1[0], o2[0]), sub(o1[1], o2[1]), want),
        ]
        for k in range(2):
            point = sample(spec, seed=DEFAULT_SEED + k)
            for new, old, value in pairs:
                assert _headroom(new, point, value) >= _headroom(old, point, value) - 8

    @pytest.mark.parametrize("sign", [1, -1], ids=["as-is", "flipped"])
    def test_connection_sign_gate(self, monkeypatch, warm_store, sign):
        # the gate can fail: with the sign of the Christoffel term of the
        # leg rule flipped, the relation and O1 - O2 checks must fail
        want = "pass" if sign > 0 else "fail"
        connection = CorrelatorTable.connection
        monkeypatch.setattr(CorrelatorTable, "connection",
                            lambda table, s, k: mul(const(sign), connection(table, s, k)))
        # an empty build cache makes the suites build afresh
        monkeypatch.setattr(genus2, "_built", {})
        for spec in (FamilySpec.An(3), FamilySpec.ApqOrbifold(1, 2)):
            assert relation_family_check(spec, points=1).verdict == want, spec.label
        assert o_difference_check(FamilySpec.An(3), points=1).verdict == want


class TestSharedLegSums:
    @pytest.mark.parametrize("order", ["catalog", "reversed"])
    def test_shared_table_same_nodes(self, order):
        # leg sums reused across graphs on one table must give every
        # contraction exactly as a table of its own does
        names = catalog_names()
        if order == "reversed":
            names = names[::-1]
        shared = CorrelatorTable(Algebra(3))
        for name in names:
            got = graph_function(builtin(name), shared)
            fresh = graph_function(builtin(name), CorrelatorTable(Algebra(3)))
            assert got is fresh, name

    def test_tables_share_no_memo(self):
        t2, t3 = CorrelatorTable(Algebra(2)), CorrelatorTable(Algebra(3))
        for name in catalog_names():
            graph_function(builtin(name), t2)
        assert t2.leg_sums and t2.connections
        memos = [attr for attr, v in vars(t2).items() if isinstance(v, dict)]
        for attr in memos:
            assert getattr(t3, attr) == {}, attr
            assert getattr(t3, attr) is not getattr(t2, attr), attr
        for name in catalog_names():
            graph_function(builtin(name), t3)
        assert max(max(t, default=0) for _, t, _ in t2.leg_sums) == 2
        assert max(max(t, default=0) for _, t, _ in t3.leg_sums) == 3
        assert max(s for s, _ in t2.connections) == 2
