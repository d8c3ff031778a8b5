"""Genus-two assembly tests.

Key oracles:
* the one-coordinate reference free energy collapses to three pure-jet
  terms, reconstructed here by hand;
* every term of the reference expression carries jet degree two, so
  scaling u^(p) by eps^p multiplies each row, and the whole expression,
  by eps^2;
* the coefficient solve reports a singular or an inconsistent system;
* corrupting a single constant breaks the decomposition at a generic
  point (sensitivity control);
* F2, G2 and each Q_p keep the translation, metric and Euler scaling
  symmetries and the sign gauge of each index, and one mis-transcribed
  term-table factor breaks one;
* with gamma zero between two index blocks, F2 and G2 are the sums of
  the blocks' values;
* on the small phase space (u_i' = 1, higher jets 0) F2 vanishes at
  the points of An, Dn and the two-dimensional family at mu1 = 1/2, 1/6,
  and passes below the relative tolerance at Apq(1,1), Apq(1,2) and Dr(1).
"""

import copy
import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from frobg2 import expr as ex
from frobg2 import genus2
from frobg2.algebra import Algebra, EvalContext, random_context
from frobg2.correlators import CorrelatorTable
from frobg2.expr import add, const, dump, h, jet, mul, pow_
from frobg2.families import FamilySpec, relation_family_check, sample
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

    def test_every_reference_term_has_jet_degree_two(self, alg2):
        # each F2 term-table row alone, summed over its index slots
        builder = genus2._TableBuilder(alg2)
        ctx = random_context(2, random.Random(19))
        eps = Fraction(5, 2)
        scaled = _scaled_jets(ctx, eps)
        for term in genus2._F2_DATA["terms"]:
            parts = [e for idx in product((1, 2), repeat=term["s"])
                     if (e := builder.term(term, idx)) is not None]
            if parts:
                total = add(*parts)
                assert scaled.evaluate(total) == eps ** 2 * ctx.evaluate(total)

    def test_correction_degree_two_grading(self, alg2):
        rng = random.Random(29)
        g2 = g2_function(alg2)
        eps = Fraction(7, 3)
        for _ in range(4):
            ctx = random_context(2, rng)
            scaled = _scaled_jets(ctx, eps)
            assert scaled.evaluate(g2) == eps ** 2 * ctx.evaluate(g2)


class TestDecomposition:
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
    def test_cross_check_fails_on_a_moved_weight(self, monkeypatch, warm_store):
        # the gate can fail: with the weight of Q4 moved from 6 to 7 the
        # relation is no longer d_x^2 (O1 - O2) at n = 4
        monkeypatch.setitem(genus2.RELATION_WEIGHTS, "Q4", 7)
        monkeypatch.setattr(genus2, "_built", {})
        expr = relation_cross_check(Algebra(4))
        rng = random.Random(61)
        for _ in range(3):
            assert random_context(4, rng).evaluate(expr) != 0

    def test_n1_relation_vanishes_identically(self):
        alg = Algebra(1)
        expr = relation_expression(alg)
        rng = random.Random(67)
        for _ in range(5):
            ctx = random_context(1, rng)
            assert ctx.evaluate(expr) == 0


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


# the three exact symmetries of F2, G2 and each Q_p: each moves a point
# and multiplies the value by a fixed factor
_SYMMETRIES = {
    # the string equation: a common shift of every u_i
    "translation": (lambda c: EvalContext(c.n, [v + 7 for v in c.us], c.hs,
                                          c.gammas, c.jets), 1),
    # h -> 5h rescales the flat metric
    "metric": (lambda c: EvalContext(c.n, c.us, [5 * v for v in c.hs],
                                     c.gammas, c.jets), Fraction(1, 25)),
    # quasi-homogeneity: (u, gamma, jets) -> (3u, gamma/3, 3 jets)
    "euler": (lambda c: EvalContext(c.n, [3 * v for v in c.us], c.hs,
                                    {k: v / 3 for k, v in c.gammas.items()},
                                    {k: 3 * v for k, v in c.jets.items()}),
              Fraction(1, 3)),
}


def _broken_symmetries(expr, n):
    """The symmetries ``expr`` does not keep at one generic exact point."""
    ctx = random_context(n, random.Random(5))
    value = ctx.evaluate(expr)
    assert value != 0  # a zero value keeps every scaling
    return {name for name, (move, factor) in _SYMMETRIES.items()
            if move(ctx).evaluate(expr) != factor * value}


def _sign_gauge(c, i):
    """h_i -> -h_i and gamma_ij -> -gamma_ij for every j != i, which
    leaves the metric sum_j h_j^2 du_j^2 as it is."""
    return EvalContext(c.n, c.us, [-v if k == i else v for k, v in enumerate(c.hs, 1)],
                       {key: -v if i in key else v for key, v in c.gammas.items()},
                       c.jets)


def _broken_sign_gauges(expr, n):
    """The indices i whose sign gauge ``expr`` does not keep at one
    generic exact point."""
    ctx = random_context(n, random.Random(5))
    value = ctx.evaluate(expr)
    assert value != 0
    return {i for i in range(1, n + 1) if _sign_gauge(ctx, i).evaluate(expr) != value}


class TestSymmetryGate:
    @pytest.mark.parametrize("name,n", [("F2", 2), ("F2", 3), ("G2", 2), ("G2", 3)]
                             + [("Q%d" % p, 2) for p in range(1, 17)])
    def test_symmetries_hold(self, name, n):
        alg = Algebra(n)
        if name == "F2":
            expr = f2_reference(alg)
        elif name == "G2":
            expr = g2_function(alg)
        else:
            expr = graph_function(builtin(name), CorrelatorTable(alg))
        assert _broken_symmetries(expr, n) == set()

    @pytest.mark.parametrize("symmetry", list(_SYMMETRIES))
    def test_each_fails_on_its_mutation(self, monkeypatch, warm_store, symmetry):
        # the gate can fail, each symmetry on its own: one factor of one
        # F2 term-table row, mis-transcribed, breaks that symmetry only
        data = copy.deepcopy(genus2._F2_DATA)
        term = {t["id"]: t for t in data["terms"]}
        if symmetry == "translation":
            # u_a - u_b read as u_a
            monkeypatch.setitem(genus2._DERIVED, "u", lambda alg, a: ex.u(a))
            factors = term[4]["f"]
            factors[factors.index(["du", 0, 1, -1])] = ["u", 0, -1]
        elif symmetry == "metric":
            term[1]["f"].append(["h", 0, 1])  # an extra h factor
        else:
            # (u_b - u_a) gamma_ab read as gamma_ab
            factors = term[4]["f"]
            factors[factors.index(["V", 0, 1, 2])] = ["g", 0, 1, 2]
        monkeypatch.setattr(genus2, "_F2_DATA", data)
        monkeypatch.setattr(genus2, "_built", {})
        assert _broken_symmetries(f2_reference(Algebra(2)), 2) == {symmetry}

    @pytest.mark.parametrize("name", ["F2", "G2"] + ["Q%d" % p for p in range(1, 17)])
    def test_sign_gauge_holds(self, name):
        for n in (2, 3):
            alg = Algebra(n)
            if name == "F2":
                expr = f2_reference(alg)
            elif name == "G2":
                expr = g2_function(alg)
            else:
                expr = graph_function(builtin(name), CorrelatorTable(alg))
            assert _broken_sign_gauges(expr, n) == set(), n

    def test_sign_gauge_fails_on_its_mutation(self, monkeypatch, warm_store):
        # the gate can fail, and only it: F2 row 9's factor (u_c - u_a)
        # gamma_ac read as (u_c - u_b) gamma_bc breaks the gauge at every
        # index at n = 3 and keeps translation, metric and Euler scaling.
        # It is not a case of test_each_fails_on_its_mutation because the
        # metric mutation there (an extra h factor) breaks the gauge too
        data = copy.deepcopy(genus2._F2_DATA)
        (row,) = [t for t in data["terms"] if t["id"] == 9]
        row["f"][row["f"].index(["V", 0, 2, 1])] = ["V", 1, 2, 1]
        monkeypatch.setattr(genus2, "_F2_DATA", data)
        monkeypatch.setattr(genus2, "_built", {})
        expr = f2_reference(Algebra(3))
        assert _broken_sign_gauges(expr, 3) == {1, 2, 3}
        assert _broken_symmetries(expr, 3) == set()


def _block(ctx, indices):
    """The point on the coordinates ``indices`` alone, renumbered from 1."""
    at = {i: k for k, i in enumerate(indices, 1)}
    return EvalContext(len(at), [ctx.us[i - 1] for i in indices],
                       [ctx.hs[i - 1] for i in indices],
                       {(at[i], at[j]): v for (i, j), v in ctx.gammas.items()
                        if i in at and j in at},
                       {(at[i], p): v for (i, p), v in ctx.jets.items() if i in at})


def _additivity_residual(build, a, b, seed):
    """``build``'s value at a point with gamma zero between the blocks
    {1..a} and {a+1..a+b}, less the sum of its values on the two blocks."""
    n = a + b
    ctx = random_context(n, random.Random(seed))
    gammas = {(i, j): v if (i <= a) == (j <= a) else Fraction(0)
              for (i, j), v in ctx.gammas.items()}
    ctx = EvalContext(n, ctx.us, ctx.hs, gammas, ctx.jets)
    blocks = [_block(ctx, range(1, a + 1)), _block(ctx, range(a + 1, n + 1))]
    return (ctx.evaluate(build(Algebra(n)))
            - sum(blk.evaluate(build(Algebra(blk.n))) for blk in blocks))


_SPLITS = [(1, 1), (1, 2), (2, 2), (1, 3)]


class TestAdditivityGate:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("a,b", _SPLITS)
    def test_blocks_add(self, a, b, seed):
        for build in (f2_reference, g2_function):
            assert _additivity_residual(build, a, b, seed) == 0

    def test_fails_on_a_row_spanning_two_blocks(self, monkeypatch, warm_store):
        # the gate can fail: a two-slot F2 row with no gamma between its
        # indices adds a term for every pair of blocks
        data = copy.deepcopy(genus2._F2_DATA)
        data["terms"].append({"id": 84, "c": "1", "s": 2, "f": [
            ["jet", 0, 2, 1], ["jet", 1, 1, 1], ["jet", 0, 1, -1],
            ["h", 0, -2], ["h", 1, -2]]})
        monkeypatch.setattr(genus2, "_F2_DATA", data)
        monkeypatch.setattr(genus2, "_built", {})
        for a, b in _SPLITS:
            for seed in (1, 2):
                assert _additivity_residual(f2_reference, a, b, seed) != 0


def _small_phase_passes(spec, seed):
    """Whether F2 passes as zero at the family's point for ``seed`` with
    every u_i' = 1 and every higher jet 0: exactly on an exact family,
    below the relative tolerance on a numeric one, where it is evaluated
    at the ambient precision, which the kernel does not read."""
    ctx = sample(spec, seed=seed).context()
    ctx = ctx.with_jets({(i, p): Fraction(1 if p == 1 else 0) for i, p in ctx.jets})
    return ctx.kernel.passes(ctx.evaluate(f2_reference(Algebra(spec.n))))


_NUMERIC_SMALL_PHASE = [FamilySpec.ApqOrbifold(1, 1), FamilySpec.ApqOrbifold(1, 2),
                        FamilySpec.DrOrbifold(1)]


class TestSmallPhaseGate:
    @pytest.mark.parametrize("spec", [
        FamilySpec.An(2), FamilySpec.An(3), FamilySpec.An(4), FamilySpec.Dn(4),
        FamilySpec.TwoDim(Fraction(1, 2)), FamilySpec.TwoDim(Fraction(1, 6)),
        *_NUMERIC_SMALL_PHASE, FamilySpec.E6(),
    ], ids=lambda s: s.label)
    def test_vanishes(self, spec):
        for seed in (1, 2):
            assert _small_phase_passes(spec, seed)

    def test_nonzero_off_the_vanishing_values(self):
        # the two-dimensional family at mu1 = 1/3, where G2 does not
        # vanish either (README "Known failing checks")
        for seed in (1, 2):
            assert not _small_phase_passes(FamilySpec.TwoDim(Fraction(1, 3)), seed)

    def test_fails_on_a_moved_row(self, monkeypatch, warm_store):
        # the gate can fail: row 40 has no jet above order one, so it
        # survives on the small phase space, and moving its coefficient
        # by 1 leaves F2 nonzero there, and far above the tolerance on
        # the numeric families
        data = copy.deepcopy(genus2._F2_DATA)
        (row,) = [t for t in data["terms"] if t["id"] == 40]
        assert all(f[2] <= 1 for f in row["f"] if f[0] == "jet")
        row["c"] = str(Fraction(row["c"]) + 1)
        monkeypatch.setattr(genus2, "_F2_DATA", data)
        monkeypatch.setattr(genus2, "_built", {})
        cases = [(spec, seed) for spec in (FamilySpec.An(3), *_NUMERIC_SMALL_PHASE)
                 for seed in (1, 2)]
        for spec, seed in cases + [(FamilySpec.E6(), 1)]:
            assert not _small_phase_passes(spec, seed), (spec.label, seed)
