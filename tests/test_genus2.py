"""Genus-two assembly tests.

Key oracles:
* the one-coordinate reference free energy collapses to three pure-jet
  terms, reconstructed here by hand;
* every term of the reference expression carries jet degree two, so
  scaling u^(p) by eps^p multiplies the whole expression by eps^2;
* the sixteen constants are re-derivable by exact linear algebra from
  the reference expression and the correction term alone;
* corrupting a single constant breaks the decomposition at a generic
  point (sensitivity control).
"""

import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest

from frobg2 import expr as ex
from frobg2 import genus2
from frobg2.algebra import Algebra, random_context
from frobg2.correlators import CorrelatorTable
from frobg2.expr import add, const, dump, h, jet, mul, neg, pow_
from frobg2.families import FamilySpec, relation_family_check
from frobg2.genus2 import (
    A1_ORBIFOLD_WEIGHTS,
    A2_WEIGHTS,
    CONSTANTS,
    check_decomposition,
    decomposition_residual,
    f2_reference,
    g2_function,
    g2_small_phase,
    graph_combination,
    o_difference_closed_form,
    o_difference_graphs,
    relation_cross_check,
    relation_expression,
    solve_coefficients,
)
from frobg2.graphs import builtin, graph_function


@pytest.fixture(scope="module")
def alg2():
    return Algebra(2)


def _scaled_jets(ctx, eps):
    jets = {(i, p): eps ** p * v for (i, p), v in ctx.jets.items()}
    return ctx.with_jets(jets)


class TestReference:
    def test_n1_pure_jet_terms(self):
        alg = Algebra(1)
        hand = add(
            mul(const(Fraction(1, 1152)), jet(1, 4),
                pow_(jet(1, 1), -2), pow_(h(1), -2)),
            mul(const(Fraction(-7, 1920)), jet(1, 2), jet(1, 3),
                pow_(jet(1, 1), -3), pow_(h(1), -2)),
            mul(const(Fraction(1, 360)), pow_(jet(1, 2), 3),
                pow_(jet(1, 1), -4), pow_(h(1), -2)),
        )
        f2 = f2_reference(alg)
        rng = random.Random(11)
        for _ in range(8):
            ctx = random_context(1, rng)
            assert ctx.evaluate(f2) == ctx.evaluate(hand)

    def test_jet_degree_two_grading(self, alg2):
        rng = random.Random(23)
        f2 = f2_reference(alg2)
        for eps in (Fraction(3), Fraction(-2, 5)):
            for _ in range(4):
                ctx = random_context(2, rng)
                scaled = _scaled_jets(ctx, eps)
                assert scaled.evaluate(f2) == eps ** 2 * ctx.evaluate(f2)

    def test_correction_degree_two_grading(self, alg2):
        rng = random.Random(29)
        g2 = g2_function(alg2)
        eps = Fraction(7, 3)
        for _ in range(4):
            ctx = random_context(2, rng)
            scaled = _scaled_jets(ctx, eps)
            assert scaled.evaluate(g2) == eps ** 2 * ctx.evaluate(g2)


class TestDecomposition:
    @pytest.mark.parametrize("n", [1, 2])
    def test_residual_zero(self, n):
        report = check_decomposition(n, trials=6, seed=7)
        assert report.verdict == "pass"

    def test_sensitivity_to_one_constant(self, alg2):
        # shift the Q2 weight by 1/960 - 1/961 and the identity must break
        bad = add(
            decomposition_residual(alg2),
            mul(const(Fraction(-1, 960) - Fraction(-1, 961)),
                graph_function(builtin("Q2"), CorrelatorTable(alg2))),
        )
        rng = random.Random(41)
        hits = 0
        for _ in range(5):
            ctx = random_context(2, rng)
            if ctx.evaluate(bad) != 0:
                hits += 1
        assert hits == 5

    def test_small_phase_ignores_jets(self):
        # the correction term only sees u_x and u_xx, both overridden,
        # so the restricted value is a function of (u, h, gamma) alone
        rng = random.Random(53)
        for n in (2, 3):
            alg = Algebra(n)
            ctx = random_context(n, rng)
            other = random_context(n, rng)
            rejet = ctx.with_jets(other.jets)
            assert g2_small_phase(alg, ctx) == g2_small_phase(alg, rejet)

    def test_small_phase_generic_nonzero(self, alg2):
        # the restriction does not vanish identically: it is nonzero at
        # some generic exact point
        rng = random.Random(59)
        assert any(
            g2_small_phase(alg2, random_context(2, rng)) != 0 for _ in range(5)
        )


class TestSolve:
    def test_recovers_constants(self):
        solved = solve_coefficients(2, samples=32, seed=5)
        assert solved == CONSTANTS
        assert solved["Q1"] == 0
        assert solved["Q2"] == Fraction(-1, 960)
        assert solved["Q15"] == Fraction(-7, 240)
        assert solved["Q16"] == Fraction(7, 10)

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            solve_coefficients(2, samples=8)

    def test_rejects_one_coordinate(self):
        # one coordinate: the sixteen contractions have rank 3
        with pytest.raises(ValueError):
            solve_coefficients(1)

    def test_singular_system_is_reported_first(self, monkeypatch):
        # Q2's column replaced by Q1's: coefficient rank 15, and the
        # right-hand side then leaves the span too, so both failures show
        sample = genus2._generic_rows

        def copy_q1_into_q2(n, rng, expressions, count, row):
            rows = sample(n, rng, expressions, count, row)
            for values in rows:
                values[1] = values[0]
            return rows

        monkeypatch.setattr(genus2, "_generic_rows", copy_q1_into_q2)
        with pytest.raises(RuntimeError, match="singular: coefficient rank 15 of 16"):
            solve_coefficients(2)

    def test_inconsistent_system_is_reported(self, monkeypatch):
        sample = genus2._generic_rows

        def move_one_rhs(n, rng, expressions, count, row):
            rows = sample(n, rng, expressions, count, row)
            rows[0][-1] += 1
            return rows

        monkeypatch.setattr(genus2, "_generic_rows", move_one_rhs)
        with pytest.raises(RuntimeError, match="inconsistent: coefficient rank 16 of 16"):
            solve_coefficients(2)


class TestRelation:
    @pytest.mark.parametrize("n", [2, 3])
    def test_cross_check_zero(self, n):
        alg = Algebra(n)
        expr = relation_cross_check(alg)
        rng = random.Random(61)
        for _ in range(5):
            ctx = random_context(n, rng)
            assert ctx.evaluate(expr) == 0

    def test_n1_relation_vanishes_identically(self):
        alg = Algebra(1)
        expr = relation_expression(alg)
        rng = random.Random(67)
        for _ in range(5):
            ctx = random_context(1, rng)
            assert ctx.evaluate(expr) == 0


class TestODifference:
    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_matches_graphs(self, n):
        alg = Algebra(n)
        closed = o_difference_closed_form(alg)
        graphs = o_difference_graphs(alg)
        rng = random.Random(71)
        for _ in range(6):
            ctx = random_context(n, rng)
            assert ctx.evaluate(closed) == ctx.evaluate(graphs)


class TestCombinations:
    def test_weights_extend(self):
        for name, c in A2_WEIGHTS.items():
            assert A1_ORBIFOLD_WEIGHTS[name] == c
        assert set(A1_ORBIFOLD_WEIGHTS) - set(A2_WEIGHTS) == {"W1", "W2", "W3"}

    def test_combination_is_weighted_sum(self, alg2):
        combo = graph_combination(alg2, A2_WEIGHTS)
        table = CorrelatorTable(alg2)
        hand = add(
            *[
                mul(const(c), graph_function(builtin(nm), table))
                for nm, c in A2_WEIGHTS.items()
            ]
        )
        rng = random.Random(83)
        for _ in range(4):
            ctx = random_context(2, rng)
            assert ctx.evaluate(combo) == ctx.evaluate(hand)


class TestBuildCache:
    @pytest.mark.parametrize("build", [
        f2_reference, g2_function, decomposition_residual,
        relation_expression, o_difference_graphs,
    ])
    def test_built_once_per_n(self, build, monkeypatch):
        first = build(Algebra(2))

        def rebuilt(alg):
            raise AssertionError("rebuilt at n=%d" % alg.n)

        monkeypatch.setattr(genus2, "CorrelatorTable", rebuilt)
        monkeypatch.setattr(genus2, "_TableBuilder", rebuilt)
        assert build(Algebra(2)) is first

    def test_repeated_suite_same_report(self):
        spec = FamilySpec.ApqOrbifold(2, 2)
        first = relation_family_check(spec, points=1).to_dict()
        assert relation_family_check(spec, points=1).to_dict() == first


# sha256 of expr.dump for the DAGs the benchmark builds, recorded before
# the term-table, sum and leg-sum builders stopped redoing work: a build
# optimisation must leave every node, operand order and constant as it was
PINNED_DAGS = [
    (g2_function, 5, "1c725efb4bb9cdf2a49c9fb4a68b608b5880265829a65aa5f30f9f2b76a29aa6"),
    (g2_function, 6, "b1b10496a9c9961e1bf19376b77e53b5c80bc9ad19a47e6b1a72fe2b56fe61d4"),
    (g2_function, 7, "353f9c43e4fed246cc9e0817b746e643be095d3fae9f1c6932d865e0244da663"),
    (relation_expression, 6,
     "064f9b4c89c15d52df3e0722291d356471d57b34a99ba8f4fbc7292a8e05f133"),
    (decomposition_residual, 3,
     "8c4351391c6e9bf9afd8c67f48fb7b696fd4436198ee36b86e06ec27bf8d080d"),
    (o_difference_graphs, 4,
     "9846a4b20d6de9329f33083e3d99cb0645886761ad399966b8c6056ed42987e4"),
]


class TestPinnedDags:
    @pytest.mark.parametrize("build,n,digest", PINNED_DAGS,
                             ids=["%s-%d" % (b.__name__, n) for b, n, _ in PINNED_DAGS])
    def test_dump_digest(self, build, n, digest):
        sha = hashlib.sha256()
        dump(build(Algebra(n)), lambda chunk: sha.update(chunk.encode()))
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("build,n,digest", PINNED_DAGS,
                             ids=["%s-%d" % (b.__name__, n) for b, n, _ in PINNED_DAGS])
    def test_dump_digest_on_a_store_hit(self, monkeypatch, build, n, digest):
        # the DAG written to the store loads back as the same nodes, with
        # nothing built
        built = build(Algebra(n))
        with genus2.stored_builds():
            genus2._write_stored(built, genus2._store_path(build.__name__, n))

            def rebuilt(alg):
                raise AssertionError("rebuilt at n=%d" % alg.n)

            monkeypatch.setattr(genus2, "_built", {})
            monkeypatch.setattr(genus2, "CorrelatorTable", rebuilt)
            monkeypatch.setattr(genus2, "_TableBuilder", rebuilt)
            loaded = build(Algebra(n))
        assert loaded is built
        self.test_dump_digest(lambda alg: loaded, n, digest)


class TestStoredRows:
    def test_operands_are_kept_positions(self):
        # the n=3 residual shares subterms; each operand reference in a
        # row that save writes is the operand's position in the kept
        # order, and the root is the last row
        e = decomposition_residual(Algebra(3))
        order, _ = ex._schedules[e]
        at = {node: k for k, node in enumerate(order)}
        chunks = []
        ex.save(e, chunks.append)
        rows = json.loads("".join(chunks))["rows"]
        assert len(rows) == len(order) and order[-1] is e
        refs = []
        for node, row in zip(order, rows):
            assert row[0] == node.op
            if node.op == ex.OP_POW:
                refs.append(row[1])
                assert row[1:] == [at[node.args[0]], node.args[1]]
            elif node.op in (ex.OP_ADD, ex.OP_MUL):
                refs.extend(row[1:])
                assert row[1:] == [at[c] for c in node.args]
        assert len(set(refs)) < len(refs)  # some operand has more than one user


class TestTermTableGate:
    @pytest.mark.parametrize("table", ["f2", "g2"])
    @pytest.mark.parametrize("delta", [0, 1], ids=["as-is", "perturbed"])
    def test_one_coefficient(self, monkeypatch, warm_store, table, delta):
        # the gate can fail: one term-table coefficient moved by delta
        # breaks the decomposition, and a swapped-in copy of the data is
        # read afresh, with no factor or coefficient memo left over
        name = "_F2_DATA" if table == "f2" else "_G2_DATA"
        data = copy.deepcopy(getattr(genus2, name))
        term = (data if table == "f2" else data["Gi"])["terms"][0]
        term["c"] = str(Fraction(term["c"]) + delta)
        monkeypatch.setattr(genus2, name, data)
        monkeypatch.setattr(genus2, "_built", {})
        want = "fail" if delta else "pass"
        assert check_decomposition(2, trials=2).verdict == want


class TestConstantsGate:
    @pytest.mark.parametrize("name", ["Q1", "Q16"])
    @pytest.mark.parametrize("delta", [0, 1], ids=["as-is", "perturbed"])
    def test_one_constant(self, monkeypatch, warm_store, name, delta):
        # the gate can fail: one of the sixteen constants moved by delta
        # breaks the decomposition; the cached DAG holds the old
        # constants, so the residual is built afresh
        monkeypatch.setitem(genus2.CONSTANTS, name, CONSTANTS[name] + delta)
        monkeypatch.setattr(genus2, "_built", {})
        want = "fail" if delta else "pass"
        assert check_decomposition(2, trials=2).verdict == want
