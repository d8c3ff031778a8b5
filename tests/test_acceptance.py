"""End-to-end acceptance checks.

One class per criterion, tolerances pinned here:
* exact trials pass only on identically zero residuals;
* numeric trials at 256-bit precision must come out below 2^-128
  relative to the largest addend seen during evaluation.

Each identity of the paper has its one positive check here, under its
criterion.  The unit modules keep only what this file does not check:
gates (a mutation that must fail), pins (digests, golden bytes),
refusals, and properties of a single layer.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from frobg2.algebra import Algebra, random_context
from frobg2.correlators import CorrelatorTable
from frobg2.expr import add, const, mul, sub
from frobg2.families import (
    FamilySpec,
    closed_form_o_difference,
    g2_vanishing_check,
    gfunction_check,
    o_difference_check,
    relation_family_check,
    residue_identity_suite,
    sample,
)
from frobg2.genus2 import (
    A1_ORBIFOLD_WEIGHTS,
    A2_WEIGHTS,
    CONSTANTS,
    check_decomposition,
    f2_reference,
    graph_combination,
    o_difference_closed_form,
    o_difference_graphs,
    relation_cross_check,
    solve_coefficients,
)
from frobg2.graphs import (
    builtin,
    canonicalize,
    catalog_names,
    enumerate_admissible,
    graph_function,
)

NUMERIC_PRECISION = 256
NUMERIC_TOL = mpmath.mpf(2) ** -128


# 1 -------------------------------------------------------------------------
class TestDecompositionIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_zero_at_20_points(self, n):
        report = check_decomposition(n, trials=20)
        assert report.verdict == "pass"
        assert len(report.trials) == 20

    def test_exact_zero_at_n5(self):
        report = check_decomposition(5, trials=2)
        assert report.verdict == "pass"
        assert len(report.trials) == 2


# 2 -------------------------------------------------------------------------
class TestCoefficientRecovery:
    def test_solved_constants(self):
        solved = solve_coefficients(2)
        assert solved == CONSTANTS
        # the four structurally anchored graphs
        assert solved["Q1"] == 0
        assert solved["Q2"] == Fraction(-1, 960)
        assert solved["Q15"] == Fraction(-7, 240)
        assert solved["Q16"] == Fraction(7, 10)


# 3 -------------------------------------------------------------------------
class TestGraphEnumeration:
    def test_sixteen_canonical_classes(self):
        classes = enumerate_admissible()
        assert len(classes) == 16
        catalog = {canonicalize(builtin(nm))
                   for nm in catalog_names() if nm.startswith("Q")}
        assert catalog == classes


# 4 -------------------------------------------------------------------------
X_IDENTITIES = {
    "P1": [(1, "Q1"), (-2, "Q3")],
    "P2": [(1, "Q3"), (1, "Q5"), (-1, "Q7"), (-2, "Q9")],
    "P3": [(1, "Q4"), (1, "Q8"), (1, "Q10"), (-2, "Q11"), (-2, "Q12")],
    "P4": [(1, "Q6"), (1, "Q2"), (-3, "Q10")],
    "P5": [(2, "Q2"), (-3, "Q4")],
    "O1": [(1, "P1"), (-2, "P2")],
    "O2": [(1, "P4"), (1, "P5"), (-3, "P3")],
}


class TestXDerivativeCalculus:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("src", sorted(X_IDENTITIES))
    def test_identity(self, n, src):
        alg = Algebra(n)
        table = CorrelatorTable(alg)
        lhs = alg.total_x(graph_function(builtin(src), table))
        rhs = add(
            *[
                mul(const(c), graph_function(builtin(nm), table))
                for c, nm in X_IDENTITIES[src]
            ]
        )
        diff = sub(lhs, rhs)
        rng = random.Random("x|%s|%d" % (src, n))
        for _ in range(10):
            ctx = random_context(n, rng)
            assert ctx.evaluate(diff) == 0


# 5 -------------------------------------------------------------------------
def _apq_cases():
    out = []
    for p in range(1, 8):
        for q in range(1, min(p, 8 - p) + 1):
            out.append(FamilySpec.ApqOrbifold(p, q))
    return out


class TestODifference:
    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_matches_graphs(self, n):
        alg = Algebra(n)
        diff = sub(o_difference_closed_form(alg), o_difference_graphs(alg))
        rng = random.Random(500 + n)
        for _ in range(6):
            ctx = random_context(n, rng)
            assert ctx.evaluate(diff) == 0

    @pytest.mark.parametrize("spec", [FamilySpec.An(n) for n in range(2, 7)]
                             + [FamilySpec.Dn(n) for n in range(4, 7)])
    def test_ade_value_zero_exact(self, spec):
        assert closed_form_o_difference(spec) == 0
        report = o_difference_check(spec, points=1)
        assert report.verdict == "pass"

    @pytest.mark.parametrize("spec", [FamilySpec.E6(), FamilySpec.E8()])
    def test_e_type_value_zero_numeric(self, spec):
        report = o_difference_check(spec, points=1,
                                    precision=NUMERIC_PRECISION)
        assert report.verdict == "pass"

    @pytest.mark.parametrize("spec", _apq_cases())
    def test_a_orbifold_values(self, spec):
        p, q = spec.p, spec.q
        assert closed_form_o_difference(spec) == \
            Fraction(p**3 + q**3 - p - q, 6)
        report = o_difference_check(spec, points=1,
                                    precision=NUMERIC_PRECISION)
        assert report.verdict == "pass"

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_d_orbifold_values(self, r):
        spec = FamilySpec.DrOrbifold(r)
        assert closed_form_o_difference(spec) == Fraction(r**3 - r, 6) + 2
        report = o_difference_check(spec, points=1,
                                    precision=NUMERIC_PRECISION)
        assert report.verdict == "pass"


# 6 -------------------------------------------------------------------------
class TestCorrectionVanishesOnFamilies:
    @pytest.mark.parametrize("spec", [FamilySpec.An(n) for n in (2, 3, 4, 5)])
    def test_an_exact(self, spec):
        report = g2_vanishing_check(spec, points=3)
        assert report.verdict == "pass"
        for t in report.trials:
            assert t.residual in ("0", "RadicalElem(0)")

    @pytest.mark.parametrize("spec", [FamilySpec.Dn(4), FamilySpec.Dn(5)])
    def test_dn_exact(self, spec):
        report = g2_vanishing_check(spec, points=3)
        assert report.verdict == "pass"

    @pytest.mark.parametrize("spec", [FamilySpec.E6(), FamilySpec.E8()])
    def test_e_type_numeric(self, spec):
        report = g2_vanishing_check(spec, points=3,
                                    precision=NUMERIC_PRECISION)
        assert report.verdict == "pass"


# 7 -------------------------------------------------------------------------
class TestRelation:
    @pytest.mark.parametrize("spec", [
        FamilySpec.An(4), FamilySpec.Dn(4),
        FamilySpec.E6(), FamilySpec.E8(),
        FamilySpec.ApqOrbifold(2, 2), FamilySpec.DrOrbifold(2),
        FamilySpec.TwoDim(Fraction(1, 4)),
        FamilySpec.TwoDim(Fraction(-3, 7)),
    ], ids=lambda s: s.label)
    def test_zero_on_family_points(self, spec):
        report = relation_family_check(spec, points=2,
                                       precision=NUMERIC_PRECISION)
        assert report.verdict == "pass"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_double_x_derivative_generically(self, n):
        alg = Algebra(n)
        expr = relation_cross_check(alg)
        rng = random.Random(700 + n)
        for _ in range(5):
            ctx = random_context(n, rng)
            assert ctx.evaluate(expr) == 0


# 8 -------------------------------------------------------------------------
class TestGFunctions:
    @pytest.mark.parametrize("spec", [
        FamilySpec.An(4), FamilySpec.Dn(5), FamilySpec.E6(),
        FamilySpec.E7(), FamilySpec.E8(),
    ], ids=lambda s: s.label)
    def test_ade_gradient_zero(self, spec):
        report = gfunction_check(spec, points=1, precision=NUMERIC_PRECISION)
        assert report.verdict == "pass"

    @pytest.mark.parametrize("spec", [
        FamilySpec.ApqOrbifold(2, 2), FamilySpec.ApqOrbifold(3, 2),
        FamilySpec.DrOrbifold(2), FamilySpec.DrOrbifold(3),
    ], ids=lambda s: s.label)
    def test_orbifold_log_closed_form(self, spec):
        report = gfunction_check(spec, points=1, precision=NUMERIC_PRECISION)
        assert report.verdict == "pass"


# 9 -------------------------------------------------------------------------
class TestResidueSuite:
    @pytest.mark.parametrize("spec", [
        FamilySpec.An(4), FamilySpec.Dn(4),
        FamilySpec.E6(), FamilySpec.E8(),
    ], ids=lambda s: s.label)
    def test_five_draws_green(self, spec):
        report = residue_identity_suite(spec, draws=5)
        assert report.verdict == "pass"


# 10 ------------------------------------------------------------------------
class TestTwoDimCriterion:
    @pytest.mark.parametrize("mu1", [
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 6),
    ], ids=str)
    def test_vanishing_values(self, mu1):
        report = g2_vanishing_check(FamilySpec.TwoDim(mu1), points=2)
        assert report.verdict == "pass"

    @pytest.mark.parametrize("mu1", [Fraction(1, 4), Fraction(1, 5)], ids=str)
    def test_non_vanishing_values(self, mu1):
        report = g2_vanishing_check(FamilySpec.TwoDim(mu1), points=2)
        assert report.verdict == "fail"

    def test_four_graph_formula_on_rank_two(self):
        spec = FamilySpec.An(2)
        alg = Algebra(2)
        diff = sub(f2_reference(alg), graph_combination(alg, A2_WEIGHTS))
        for k in range(5):
            point = sample(spec, seed=1000 + k)
            assert point.context().evaluate(diff) == 0

    def test_seven_graph_formula_on_orbifold(self):
        spec = FamilySpec.ApqOrbifold(1, 1)
        alg = Algebra(2)
        diff = sub(f2_reference(alg),
                   graph_combination(alg, A1_ORBIFOLD_WEIGHTS))
        with mpmath.workprec(NUMERIC_PRECISION + 64):
            for k in range(5):
                point = sample(spec, seed=1000 + k,
                               precision=NUMERIC_PRECISION)
                ctx = point.context()
                val = ctx.evaluate(diff)
                scale = max(ctx.kernel.max_mag, 1.0)
                assert abs(val) < NUMERIC_TOL * scale
