"""Family sampler and family-suite tests.

Key oracles:
* internal cross-checks of each sampler: h_i^2 equals the stored metric
  entry, and for the six-dimensional singularity the metric matches an
  independently computed Hessian at the critical points;
* determinism: sampling is pure in (spec, seed, precision), and each
  pinned draw keeps its digest;
* a draw that degenerates is redrawn, and given up after MAX_RESAMPLE;
* a family report reads no ambient mpmath precision, and a moved point
  value or closed form fails its check.

The family suites themselves (O1 - O2, the relation, the vanishing of
G2, the G-function, the residue identities) are checked in
``test_acceptance.py``.
"""

import dataclasses
import hashlib
from fractions import Fraction

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from frobg2 import families, genus2
from frobg2.algebra import MAX_RESAMPLE, DegenerateSample, ResampleNeeded
from frobg2.cli import main
from frobg2.exact import NonConvergenceError
from frobg2.families import (
    FAMILIES,
    FamilySpec,
    Unsupported,
    _residual_ok,
    closed_form_o_difference,
    g2_vanishing_check,
    gfunction_check,
    o_difference_check,
    relation_family_check,
    residue_identity_suite,
    sample,
)
from frobg2.genus2 import g2_function, o_difference_graphs
from frobg2.algebra import Algebra
from frobg2.radicals import RadicalElem, radical_tower
from frobg2.report import DEFAULT_PRECISION


class TestSampling:
    def test_deterministic(self):
        spec = FamilySpec.An(3)
        a = sample(spec, seed=5)
        families._points.clear()  # so that b is drawn again, not looked up
        b = sample(spec, seed=5)
        assert a.digest() == b.digest()
        c = sample(spec, seed=6)
        assert c.digest() != a.digest()

    def test_redraw_compares_equal(self):
        # two draws of one exact point, each in a field of its own
        spec = FamilySpec.An(3)
        a = sample(spec, seed=5)
        families._points.clear()
        b = sample(spec, seed=5)
        assert a.hs[0].field is not b.hs[0].field
        assert (a.us, a.hs, a.gammas) == (b.us, b.hs, b.gammas)

    @pytest.mark.parametrize("spec", [FamilySpec.An(4), FamilySpec.Dn(4)])
    def test_h_squares_to_metric(self, spec):
        point = sample(spec, seed=3)
        for i in range(spec.n):
            assert point.hs[i] * point.hs[i] == point.internal["eta"][i]

    def test_e6_metric_matches_hessian(self):
        spec = FamilySpec.E6()
        point = sample(spec, seed=3)
        p, q = point.internal["p"], point.internal["q"]
        with mpmath.workprec(320):
            pp, qq = p.deriv(), q.deriv()
            ppp, qqq = pp.deriv(), qq.deriv()
            for x, y, eta in zip(point.internal["xs"], point.internal["ys"],
                                 point.internal["eta"]):
                hess = 6 * x * (ppp(y) * x + qqq(y)) - pp(y) ** 2
                assert abs(hess * eta - 1) < mpmath.mpf(2) ** -200

    def test_two_dim_h_relation(self):
        spec = FamilySpec.TwoDim(Fraction(1, 3))
        point = sample(spec, seed=9)
        h1, h2 = point.hs
        assert h1 * h1 + h2 * h2 == 0
        # gamma * (u1 - u2) is the parameter times the imaginary unit
        gam = point.gammas[(1, 2)]
        prod = gam * (point.us[0] - point.us[1])
        assert prod * prod == -spec.mu1 * spec.mu1


def _exact_bytes(v):
    """An exact, order-preserving serialization of a sampled value."""
    if isinstance(v, RadicalElem):
        return "R%r%r" % (v.field.radicands, list(v.coeffs.items()))
    if isinstance(v, mpmath.mpc):
        return "C%r%r" % (v.real.man_exp, v.imag.man_exp)
    return repr(v)


def _point_sha(point):
    h = hashlib.sha256()
    for part in (point.us, point.hs):
        for v in part:
            h.update(_exact_bytes(v).encode())
    for part in (point.gammas, point.jets):
        for k, v in part.items():
            h.update(("%r=%s;" % (k, _exact_bytes(v))).encode())
    return h.hexdigest()


_PINNED_SPECS = {spec.label: spec for spec in [
    FamilySpec.An(4), FamilySpec.Dn(4), FamilySpec.TwoDim(Fraction(1, 3)),
    FamilySpec.E6(), FamilySpec.E7(), FamilySpec.E8(),
    FamilySpec.ApqOrbifold(1, 1), FamilySpec.ApqOrbifold(2, 1), FamilySpec.DrOrbifold(2),
]}

# sha256 of (us, hs, gammas, jets), recorded before the samplers were
# rewritten around one redraw loop; a change in the rng consumption
# order or in any arithmetic step moves them
PINNED_SAMPLES = {
    ("An(4)", 3):
        "c5e9e9ed40c8809debc63b5d8bba3de958a5be2381fe76dc87e6ada8b7af785a",
    ("An(4)", 20120427):
        "c4c9f713c63a2f7abe24bde0c8c34221dd51413f1465d6a4f9b41548cc03f45b",
    ("Dn(4)", 3):
        "a91df2d948beed55a08ba5d9151f93b950379825b8ad91ee4c68e1d4b8074568",
    ("Dn(4)", 20120427):
        "531f2334c5d1ede2553367707da68a7b2e4329bf54acef89a369454547577546",
    ("TwoDim(1/3)", 3):
        "15639b5aa906bcee79e060a373988e853d1c463edcb38dfbfd14871ccb53eb55",
    ("TwoDim(1/3)", 20120427):
        "9ca5864bbd664e81e6ce96e2ff26fb8eef7f8ca058f599df469463f9758b8cd0",
    ("E6", 3):
        "4ed551a6e886eaf7feeeef757f1ea9bd1cdf03164cb2507cd626d78fd10ad203",
    ("E6", 20120427):
        "e197439df7dada90be95d001e9b2a17aa8d19b564bea18b0f913bc7ad51e873b",
    ("E7", 3):
        "009563ff503e3ec84165ebce133e163766e0fe016d298f884ce54930e6a0b51e",
    ("E7", 20120427):
        "54dc7e5e256ee4b279eb5ec5370b735da74a27a02b0c224c69a4b45e5780be40",
    ("E8", 3):
        "27240e0c08c416d891e7aba5c7441907c72597e743393646d7dad61e235e09c2",
    ("E8", 20120427):
        "54f856e8278204ca01193f7e02b6d23fe5a1eab7de0ae2f5f1bd1f547643004d",
    # draws with an exactly real root, whose digest reads the root
    # finder's last bits
    ("Apq(1,1)", 17):
        "66449551e2b37f7691d96f9e170d10c1b90e21820219f5e50e2ff10f1fa1c23b",
    ("Apq(1,1)", 24):
        "590945a1dc005c5e4f456b8d3c57cbeea035e955097db743f59cde42569ee95f",
    ("Apq(2,1)", 3):
        "005d2e013430137cdb9c399c31d9ec7bf7b33a71ede20df7c8edb32be83b1288",
    ("Apq(2,1)", 20120427):
        "9260d25b244c15841cddd611ec28cb38b0ad904fb2486c40cbc4f6427fbc8529",
    ("Dr(2)", 3):
        "9a0f654140754723f62092bfcf910ff7f50169341d406d71140fa8c962308542",
    ("Dr(2)", 20120427):
        "30cea2947b6196ff4da06ec5d92c1ee693632162ea21480235048cab726c8ddb",
}


class TestPinnedSamples:
    @pytest.mark.parametrize("label,seed", sorted(PINNED_SAMPLES))
    def test_sample_digest(self, label, seed):
        spec = _PINNED_SPECS[label]
        assert _point_sha(sample(spec, seed=seed)) == PINNED_SAMPLES[label, seed]


class TestLabels:
    def test_pinned_strings(self):
        # the label seeds every family rng and digest, so its bytes are pinned
        labels = [spec.label for spec in [
            FamilySpec.An(4), FamilySpec.Dn(5), FamilySpec.E6(), FamilySpec.E7(),
            FamilySpec.E8(), FamilySpec.ApqOrbifold(1, 2), FamilySpec.DrOrbifold(3),
            FamilySpec.TwoDim(Fraction(1, 2)), FamilySpec.TwoDim(Fraction(-3, 4)),
        ]]
        assert labels == ["An(4)", "Dn(5)", "E6", "E7", "E8", "Apq(1,2)", "Dr(3)",
                          "TwoDim(1/2)", "TwoDim(-3/4)"]


class TestDrawLoop:
    @staticmethod
    def _counting(monkeypatch, kind, field, result):
        """Replace the family's sampler or residue checks by a draw that
        always returns ``result``; returns the list of its calls."""
        calls = []

        def draw(*args):
            calls.append(args)
            return result

        record = dataclasses.replace(FAMILIES[kind], **{field: draw})
        monkeypatch.setitem(FAMILIES, kind, record)
        return calls

    @pytest.mark.parametrize("result", [
        None,
        # coincident u_i make a degenerate draw on every family
        {"us": [Fraction(1)] * 3, "hs": [], "gammas": {}, "draw": ()},
    ])
    def test_sample_gives_up(self, monkeypatch, result):
        calls = self._counting(monkeypatch, "An", "sampler", result)
        with pytest.raises(DegenerateSample):
            sample(FamilySpec.An(3), seed=1)
        assert len(calls) == MAX_RESAMPLE

    def test_failed_draw_is_not_kept(self, monkeypatch):
        # a sample that gives up keeps nothing: the next call draws again
        calls = self._counting(monkeypatch, "An", "sampler", None)
        for _ in range(2):
            with pytest.raises(DegenerateSample):
                sample(FamilySpec.An(3), seed=1)
        assert len(calls) == 2 * MAX_RESAMPLE
        assert not families._points

    def test_residue_suite_gives_up(self, monkeypatch):
        calls = self._counting(monkeypatch, "E6", "residue_checks", None)
        with pytest.raises(DegenerateSample):
            residue_identity_suite(FamilySpec.E6(), seed=1, draws=2)
        assert len(calls) == MAX_RESAMPLE

    def _patch_roots(self, monkeypatch, fail):
        """poly_roots raising ``fail`` on its first call only."""
        real = families.poly_roots
        calls = []

        def roots(poly, precision):
            calls.append(poly)
            if len(calls) == 1:
                raise fail
            return real(poly, precision)

        monkeypatch.setattr(families, "poly_roots", roots)
        return calls

    def test_nonconvergence_redraws(self, monkeypatch):
        spec = FamilySpec.E6()
        plain = sample(spec, seed=3)  # one root-finder call at this seed
        families._points.clear()  # so that the second draw is made, not looked up
        calls = self._patch_roots(monkeypatch, NonConvergenceError("forced"))
        redrawn = sample(spec, seed=3)
        assert len(calls) == 2
        assert redrawn.digest() != plain.digest()

    def test_other_errors_propagate(self, monkeypatch):
        self._patch_roots(monkeypatch, RuntimeError("root finder bug"))
        with pytest.raises(RuntimeError, match="root finder bug"):
            sample(FamilySpec.E6(), seed=3)

    def test_propagated_error_is_not_kept(self, monkeypatch):
        calls = self._patch_roots(monkeypatch, RuntimeError("root finder bug"))
        with pytest.raises(RuntimeError):
            sample(FamilySpec.E6(), seed=3)
        assert not families._points
        point = sample(FamilySpec.E6(), seed=3)  # drawn, not an error kept
        assert len(calls) == 2
        assert families._points == {(FamilySpec.E6(), 3, DEFAULT_PRECISION): point}

    @staticmethod
    def _degenerate_generic_points(monkeypatch):
        """Every generic exact point of genus2 hits a vanishing
        denominator; returns the list of points drawn."""
        real = genus2.random_context
        drawn = []

        def draw(n, rng):
            ctx = real(n, rng)
            drawn.append(ctx)

            def evaluate(e):
                raise ResampleNeeded("forced")

            ctx.evaluate = evaluate
            return ctx

        monkeypatch.setattr(genus2, "random_context", draw)
        return drawn

    def test_decomposition_gives_up(self, monkeypatch):
        drawn = self._degenerate_generic_points(monkeypatch)
        with pytest.raises(DegenerateSample):
            genus2.check_decomposition(1, trials=3)
        assert len(drawn) == MAX_RESAMPLE

    def test_solve_gives_up(self, monkeypatch):
        drawn = self._degenerate_generic_points(monkeypatch)
        with pytest.raises(DegenerateSample):
            genus2.solve_coefficients(2)
        assert len(drawn) == MAX_RESAMPLE

    def test_generic_give_up_exits_three(self, monkeypatch):
        self._degenerate_generic_points(monkeypatch)
        res = CliRunner().invoke(main, ["verify-decomposition", "--n", "1",
                                        "--trials", "2"])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert "non-convergent" in res.stderr


class TestShiftInvariance:
    def test_common_shift_of_u_changes_nothing(self):
        # the additive constant of the superpotential shifts every u_i
        # equally; all checked quantities depend on u only through
        # differences
        from frobg2.algebra import EvalContext
        from frobg2.genus2 import g2_function

        spec = FamilySpec.An(3)
        point = sample(spec, seed=25)
        alg = Algebra(3)
        ctx = point.context()
        shift = Fraction(17, 3)
        moved = EvalContext(3, [v + shift for v in point.us], point.hs,
                            point.gammas, point.jets)
        for expr in (o_difference_graphs(alg), g2_function(alg)):
            assert ctx.evaluate(expr) == moved.evaluate(expr)


class TestAmbientPrecision:
    # a numeric family report is computed at precision + 64 bits, and an
    # exact family's report reads no mpmath precision at all: a low
    # global mpmath precision changes no residual string, and the suite
    # leaves the global precision as it found it
    @pytest.mark.parametrize("check, spec", [
        (relation_family_check, FamilySpec.ApqOrbifold(1, 2)),
        (g2_vanishing_check, FamilySpec.DrOrbifold(1)),
        (o_difference_check, FamilySpec.ApqOrbifold(1, 2)),
        (relation_family_check, FamilySpec.An(3)),
        (g2_vanishing_check, FamilySpec.Dn(4)),
        (g2_vanishing_check, FamilySpec.TwoDim(Fraction(1, 2))),
        (gfunction_check, FamilySpec.ApqOrbifold(1, 2)),
    ], ids=["relation", "g2", "odiff", "relation-An(3)", "g2-Dn(4)", "g2-TwoDim(1/2)",
            "gfunction"])
    def test_report_ignores_ambient_precision(self, check, spec):
        with mpmath.workprec(53):
            want = check(spec, points=1).to_json()
        families._points.clear()  # the run at 20 bits draws its point again
        with mpmath.workprec(20):
            got = check(spec, points=1).to_json()
            assert mpmath.mp.prec == 20
        assert got == want

    def test_point_value_ignores_ambient_precision(self):
        # the numeric kernel computes at its own precision: G2 at an
        # orbifold point is the same value, noted against the same
        # largest addend, at any global mpmath precision
        e = g2_function(Algebra(4))
        seen = set()
        for prec in (20, 53, 320):
            families._points.clear()  # each precision draws the point again
            with mpmath.workprec(prec):
                ctx = sample(FamilySpec.ApqOrbifold(2, 2), seed=1).context()
                val = ctx.evaluate(e)
                assert ctx.kernel.passes(val)
            seen.add((val._mpc_, ctx.kernel.max_mag))
        assert len(seen) == 1


class TestExactPointGate:
    @pytest.mark.parametrize("check", [g2_vanishing_check, relation_family_check],
                             ids=["g2", "relation"])
    @pytest.mark.parametrize("spec", [FamilySpec.An(4), FamilySpec.Dn(4)],
                             ids=lambda s: s.label)
    @pytest.mark.parametrize("delta", [0, Fraction(1, 2**100)], ids=["as-is", "perturbed"])
    def test_one_gamma(self, monkeypatch, check, spec, delta):
        # the exact gate can fail: gamma_12 of the sampled point moved by
        # delta; it becomes a two-term radical, off the kernel's short path
        def perturbed(spec, **kwargs):
            point = sample(spec, **kwargs)
            gammas = dict(point.gammas)
            gammas[(1, 2)] = gammas[(1, 2)] + delta
            if delta:
                assert len(gammas[(1, 2)].coeffs) == 2
            return dataclasses.replace(point, gammas=gammas)

        monkeypatch.setattr(families, "sample", perturbed)
        report = check(spec, points=1, seed=3)
        assert report.verdict == ("fail" if delta else "pass")


class TestClosedFormGate:
    @pytest.mark.parametrize("delta", [0, 1], ids=["as-is", "perturbed"])
    def test_an_o_difference(self, monkeypatch, delta):
        # the gate can fail: the An closed form of O1 - O2 moved by delta,
        # through an orbifold weight 2, which adds (2^3 - 2)/6 = 1, no
        # longer matches the value at a sampled point
        an = families.FAMILIES["An"]
        weights = (2,) if delta else ()
        assert closed_form_o_difference(FamilySpec.An(3)) == 0
        monkeypatch.setitem(families.FAMILIES, "An",
                            dataclasses.replace(an, orbifold_weights=lambda spec: weights))
        assert closed_form_o_difference(FamilySpec.An(3)) == delta
        res = CliRunner().invoke(main, ["compute-odiff", "--family", "an", "--n", "3",
                                        "--points", "1"])
        assert res.exit_code == (1 if delta else 0), res.output


class TestResidualGate:
    def test_relative_tolerance(self):
        assert _residual_ok(mpmath.mpf(2) ** -130, 256)
        assert _residual_ok(mpmath.mpf(2) ** -100, 256, mpmath.mpf(2) ** 30)
        assert not _residual_ok(mpmath.mpf(2) ** -100, 256)

    @pytest.mark.parametrize("val, scale", [
        (mpmath.mpf("1e300"), mpmath.mpc("1e400")),  # scale beyond floats
        (mpmath.mpf(0), float("inf")),
        (mpmath.mpf(0), mpmath.inf),
        (mpmath.inf, 1),
        (mpmath.mpc(mpmath.inf, 0), 1),
        (mpmath.nan, 1),
        (mpmath.mpf(0), mpmath.nan),
    ])
    def test_non_finite_fails(self, val, scale):
        assert not _residual_ok(val, 256, scale)


class TestRefusals:
    """A check the family has no closed form or suite for is refused
    before anything is built or forked."""

    @pytest.mark.parametrize("refused", [
        lambda: residue_identity_suite(FamilySpec.E7()),
        lambda: gfunction_check(FamilySpec.TwoDim(Fraction(1, 2))),
    ], ids=["residues-e7", "gfunction-2d"])
    def test_library_raises_unsupported(self, monkeypatch, refused):
        monkeypatch.setattr(genus2, "_built", {})
        with pytest.raises(Unsupported) as exc:
            refused()
        assert isinstance(exc.value, ValueError)
        assert genus2._built == {}

    @pytest.mark.parametrize("args", [
        "verify-residues --family e7",
        "verify-gfunction --family 2d --mu1 1/2",
    ])
    def test_cli_exits_two(self, monkeypatch, tmp_path, args):
        # with nothing kept, a build would write the store
        monkeypatch.setattr(genus2, "_built", {})
        res = CliRunner().invoke(main, args.split())
        assert res.exit_code == 2
        assert res.stdout == ""
        store = tmp_path / "cache" / "frobg2"
        assert not store.exists() or not list(store.iterdir())


class TestRadicalTower:
    @given(st.lists(
        st.integers(min_value=-40, max_value=40).filter(lambda x: x != 0),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_roots_square_back(self, rads):
        fld, roots = radical_tower([Fraction(r) for r in rads])
        for r, root in zip(rads, roots):
            assert root * root == fld.rational(r)

    def test_dependent_product(self):
        # 2 * 3 * 6 = 36 is a perfect square, so the third root must be
        # expressed through the first two
        fld, roots = radical_tower([2, 3, 6])
        assert len(fld) == 2
        assert roots[2] == roots[0] * roots[1] / 1
        assert roots[2] * roots[2] == fld.rational(6)
