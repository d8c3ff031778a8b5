"""Kernel tests: polynomials, residues, row reduction, roots, radical
field.

Expected values come from independent routes: sympy for residues,
direct series expansion by hand for the frozen residue cases.
"""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from frobg2 import genus2
from frobg2.algebra import Algebra
from frobg2.correlators import CorrelatorTable
from frobg2.exact import (
    MAX_POLE_ORDER,
    NonConvergenceError,
    Poly,
    _is_zero,
    _laurent_tail,
    poly_gcd,
    poly_roots,
    residue,
    residue_at_infinity,
    row_reduce,
)
from frobg2.graphs import builtin, graph_function
from frobg2.radicals import RadicalField, is_square_fraction
from frobg2.report import DEFAULT_SEED


def F(a, b=1):
    return Fraction(a, b)


def sympy_poly(p, z):
    return sum(sympy.Rational(c) * z**i for i, c in enumerate(p.coeffs))


class TestPoly:
    def test_eval_and_arith(self):
        p = Poly([F(1), F(2), F(3)])  # 1 + 2x + 3x^2
        q = Poly([F(0), F(1)])
        assert p(F(2)) == 17
        assert (p * q)(F(2)) == 34
        assert (p + q)(F(2)) == 19
        assert p.deriv()(F(2)) == 14

    def test_shift(self):
        rng = random.Random(7)
        for _ in range(20):
            p = Poly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
            a = F(rng.randint(-5, 5), rng.randint(1, 4))
            x = F(rng.randint(-5, 5), rng.randint(1, 3))
            assert p.shift(a)(x) == p(x + a)

    def test_divmod(self):
        p = Poly([F(-1), F(0), F(0), F(1)])  # x^3 - 1
        d = Poly([F(-1), F(1)])  # x - 1
        q, r = p.divmod(d)
        assert r.is_zero()
        assert q == Poly([F(1), F(1), F(1)])


class TestResidue:
    def test_simple_pole(self):
        # 1/((z-2)(z-3)) at z=2: expand 1/(z-3) at 2 -> -1
        num = Poly([F(1)])
        den = Poly([F(6), F(-5), F(1)])
        assert residue(num, den, F(2)) == -1
        assert residue(num, den, F(3)) == 1

    def test_higher_order_pole(self):
        # (z^2+1)/(z-1)^3 at 1: numerator shift (1+t)^2+1 = 2+2t+t^2 -> t^2 coeff 1
        num = Poly([F(1), F(0), F(1)])
        den = Poly([F(-1), F(1)]) * Poly([F(-1), F(1)]) * Poly([F(-1), F(1)])
        assert residue(num, den, F(1)) == 1

    def test_not_a_pole_returns_zero(self):
        num = Poly([F(5), F(1)])
        den = Poly([F(6), F(-5), F(1)])
        assert residue(num, den, F(0)) == 0

    def test_infinity(self):
        # 1/z: residue at infinity is -1
        assert residue_at_infinity(Poly([F(1)]), Poly([F(0), F(1)])) == -1
        # z: no residue at infinity
        assert residue_at_infinity(Poly([F(0), F(1)]), Poly([F(1)])) == 0
        # (z+1)/z^2 = 1/z + 1/z^2 -> -1
        assert residue_at_infinity(Poly([F(1), F(1)]), Poly([F(0), F(0), F(1)])) == -1

    def test_against_sympy(self):
        z = sympy.Symbol("z")
        rng = random.Random(11)
        for _ in range(15):
            roots = rng.sample(range(-6, 7), rng.randint(1, 3))
            mults = [rng.randint(1, 3) for _ in roots]
            den = Poly([F(1)])
            for r, m in zip(roots, mults):
                for _ in range(m):
                    den = den * Poly([F(-r), F(1)])
            num = Poly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))])
            if num.is_zero():
                num = Poly([F(1)])
            at = roots[0]
            got = residue(num, den, F(at))
            expect = sympy.residue(sympy_poly(num, z) / sympy_poly(den, z), z, at)
            assert got == Fraction(int(expect.p), int(expect.q))

    def test_global_sum_is_zero(self):
        # sum of residues over all poles plus infinity vanishes
        rng = random.Random(13)
        for _ in range(10):
            roots = rng.sample(range(-8, 9), rng.randint(2, 4))
            den = Poly([F(1)])
            for r in roots:
                den = den * Poly([F(-r), F(1)])
            num = Poly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
            total = sum(residue(num, den, F(r)) for r in roots)
            total += residue_at_infinity(num, den)
            assert total == 0

    @pytest.mark.parametrize("at", [mpmath.mpf(1) / 3, mpmath.mpc(1, 2)], ids=["mpf", "mpc"])
    def test_inexact_location_raises(self, at):
        # the pole order is read off exact zeros, which an mpmath shift
        # does not make
        num = Poly([F(1)])
        den = Poly([-at, F(1)]) * Poly([F(1), F(1)])
        with pytest.raises(TypeError):
            residue(num, den, at)

    @pytest.mark.parametrize("at", [F(2), mpmath.mpf(2)], ids=["exact", "mpf"])
    def test_zero_denominator_raises(self, at):
        num = Poly([F(1), F(1)])
        with pytest.raises(ZeroDivisionError):
            residue(num, Poly([]), at)
        with pytest.raises(ZeroDivisionError):
            residue_at_infinity(num, Poly([]))


def _full_shift_residue(num, den, at):
    """The residue from the whole shifted numerator and denominator."""
    dc = den.shift(at).coeffs
    m = next(k for k, c in enumerate(dc) if not _is_zero(c))
    if m > MAX_POLE_ORDER:
        raise NonConvergenceError("pole order %d" % m)
    if m == 0:
        return at * 0
    return _laurent_tail(num.shift(at).coeffs, dc[m:], m, at * 0)


class TestTruncatedShift:
    """An exact residue shifts only the coefficients it reads; its value
    is the one the whole shift gives."""

    K = RadicalField([F(2), F(3)])

    @classmethod
    def _scalar(cls, rng, radical):
        q = F(rng.randint(-9, 9), rng.randint(1, 5))
        if not radical:
            return q
        s2, s3 = cls.K.sqrt_gen(0), cls.K.sqrt_gen(1)
        return cls.K.rational(q) + F(rng.randint(-3, 3)) * s2 + F(rng.randint(-3, 3)) * s3 * s2

    def _case(self, rng, radical, order):
        """num/den over the scalars, with a pole of ``order`` at the point."""
        at = self._scalar(rng, radical)
        one = at * 0 + 1
        while True:
            rest = Poly([self._scalar(rng, radical) for _ in range(rng.randint(1, 6))])
            if not rest.is_zero() and not _is_zero(rest(at)):
                break
        den = rest
        for _ in range(order):
            den = den * Poly([-at, one])
        num = Poly([self._scalar(rng, radical) for _ in range(rng.randint(0, 10))])
        return num, den, at

    @pytest.mark.parametrize("radical", [False, True], ids=["fraction", "radical"])
    def test_equals_full_shift(self, radical):
        rng = random.Random(23)
        for order in range(MAX_POLE_ORDER + 1):
            for _ in range(3):
                num, den, at = self._case(rng, radical, order)
                got = residue(num, den, at)
                assert got == _full_shift_residue(num, den, at)
                assert type(got) is type(at)

    @pytest.mark.parametrize("radical", [False, True], ids=["fraction", "radical"])
    def test_order_over_cap_raises(self, radical):
        num, den, at = self._case(random.Random(29), radical, MAX_POLE_ORDER + 1)
        with pytest.raises(NonConvergenceError):
            _full_shift_residue(num, den, at)
        with pytest.raises(NonConvergenceError, match="pole order 9 exceeds cap 8"):
            residue(num, den, at)


class TestRowReduce:
    def test_full_rank(self):
        rows = [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(10)]]
        before = [list(r) for r in rows]
        rank, pivots, reduced = row_reduce(rows)
        assert (rank, pivots) == (3, [0, 1, 2])
        assert reduced == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
        assert rows == before

    def test_singular(self):
        rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1), F(0), F(1)]]
        rank, pivots, reduced = row_reduce(rows)
        assert (rank, pivots) == (2, [0, 1])
        assert reduced[2] == [0, 0, 0]

    def test_inconsistent_right_hand_side_takes_a_pivot(self):
        # x + y = 2 and x + y = 3, augmented
        rank, pivots, reduced = row_reduce([[F(1), F(1), F(2)], [F(1), F(1), F(3)]])
        assert (rank, pivots) == (2, [0, 2])
        assert reduced == [[1, 1, 0], [0, 0, 1]]

    def test_radical_system(self):
        # sqrt2 x + y = 1, x + sqrt2 y = 0: x = sqrt2, y = -1
        K = RadicalField([F(2)])
        s2, one, zero = K.sqrt_gen(0), K.one(), K.zero()
        rank, pivots, reduced = row_reduce([[s2, one, one], [one, s2, zero]])
        assert (rank, pivots) == (2, [0, 1])
        assert reduced == [[one, zero, s2], [zero, one, -one]]
        # sqrt2 times the second row is the first
        rank, pivots, _ = row_reduce([[s2, K.rational(2)], [one, s2]])
        assert (rank, pivots) == (1, [0])

    def test_one_coordinate_contractions_have_rank_three(self):
        table = CorrelatorTable(Algebra(1))
        cols = [graph_function(builtin("Q%d" % p), table) for p in range(1, 17)]
        rng = random.Random(DEFAULT_SEED)
        rows = genus2._generic_rows(1, rng, cols, 32, lambda ctx, values: values)
        assert row_reduce(rows)[0] == 3


class TestRoots:
    def test_quadratic(self):
        roots = poly_roots(Poly([F(-2), F(0), F(1)]))
        with mpmath.workprec(256):
            s = mpmath.sqrt(2)
            assert abs(roots[0] + s) < mpmath.mpf(2) ** -120
            assert abs(roots[1] - s) < mpmath.mpf(2) ** -120

    def test_triple_root(self):
        roots = poly_roots(Poly([F(0), F(0), F(0), F(1)]))
        assert len(roots) == 3
        assert max(abs(r) for r in roots) < mpmath.mpf(2) ** -40

    def test_reconstruction(self):
        rng = random.Random(23)
        for _ in range(8):
            deg = rng.randint(2, 7)
            p = Poly([F(rng.randint(-9, 9)) for _ in range(deg)] + [F(1)])
            if p.degree < 2:
                continue
            roots = poly_roots(p, precision=256)
            with mpmath.workprec(300):
                rec = Poly([mpmath.mpc(1)])
                for r in roots:
                    rec = rec * Poly([-r, mpmath.mpc(1)])
                err = max(
                    abs(a - mpmath.mpf(b.numerator) / b.denominator)
                    for a, b in zip(rec.coeffs, p.coeffs)
                )
                assert err < mpmath.mpf(2) ** -100

    def test_sorted_deterministic(self):
        p = Poly([F(-1), F(0), F(0), F(0), F(1)])
        r1 = poly_roots(p)
        r2 = poly_roots(p)
        assert all(abs(a - b) == 0 for a, b in zip(r1, r2))
        assert r1 == sorted(r1, key=lambda r: (r.real, r.imag))


class TestPolyGcd:
    def test_cancellation(self):
        num = Poly([F(-1), F(0), F(1)])  # (x-1)(x+1)
        den = Poly([F(-2), F(2)])  # 2(x-1)
        g = poly_gcd(num, den)
        assert g == Poly([F(-1), F(1)])  # monic
        assert num.divmod(g) == (Poly([F(1), F(1)]), Poly([]))
        assert poly_gcd(num, Poly([F(3)])) == Poly([F(1)])


class TestRadicals:
    def test_square_detection(self):
        assert is_square_fraction(F(4, 9))
        assert not is_square_fraction(F(2))
        assert not is_square_fraction(F(-4))

    def test_field_ops(self):
        K = RadicalField([F(2), F(3)])
        a = K.sqrt_gen(0)
        b = K.sqrt_gen(1)
        assert a * a == K.rational(2)
        assert (a * b) * (a * b) == K.rational(6)
        x = 1 + a + 2 * b
        assert x * x.inverse() == K.one()
        assert (x - x).is_zero()
        assert x**3 == x * x * x

    def test_equal_across_fields(self):
        # elements of two fields over the same radicands compare by
        # coefficients; any other pair is unequal, and == never raises
        K, L = RadicalField([F(2), F(3)]), RadicalField([F(2), F(3)])
        x = 1 + K.sqrt_gen(0) + 2 * K.sqrt_gen(1)
        assert x == 1 + L.sqrt_gen(0) + 2 * L.sqrt_gen(1)
        assert x != 1 + L.sqrt_gen(0) - 2 * L.sqrt_gen(1)
        assert hash(x) == hash(1 + L.sqrt_gen(0) + 2 * L.sqrt_gen(1))
        assert RadicalField([F(2)]).sqrt_gen(0) != RadicalField([F(3)]).sqrt_gen(0)
        # arithmetic across fields still refuses
        with pytest.raises(ValueError, match="mixing radical fields"):
            x + L.sqrt_gen(0)
        with pytest.raises(ValueError, match="mixing radical fields"):
            x * L.sqrt_gen(0)
        with pytest.raises(ValueError, match="mixing radical fields"):
            x / L.sqrt_gen(0)

    def test_gaussian(self):
        K = RadicalField([F(-1)])
        i = K.sqrt_gen(0)
        assert i * i == K.rational(-1)
        z = 3 + 4 * i
        assert z * z.inverse() == K.one()

    def test_inverse_deep_tower(self):
        K = RadicalField([F(2), F(3), F(5), F(7)])
        x = K.rational(1)
        for k in range(4):
            x = x + K.sqrt_gen(k) * F(k + 1, k + 2)
        assert x * x.inverse() == K.one()

    def test_mul_fast_paths_match_general_product(self):
        # the general product: every pair of monomials, sqrt(r)**2 = r for
        # each shared radical, like terms summed in first-seen order
        def general(x, y):
            rads = x.field.radicands
            out = {}
            for m1, c1 in x.coeffs.items():
                for m2, c2 in y.coeffs.items():
                    c = c1 * c2
                    for k in range(len(rads)):
                        if (m1 & m2) >> k & 1:
                            c *= rads[k]
                    s = out.get(m1 ^ m2, Fraction(0)) + c
                    if s:
                        out[m1 ^ m2] = s
                    else:
                        out.pop(m1 ^ m2, None)
            return out

        # the general sum: y's monomials added into a copy of x's in y's
        # order, a new mask last, a cancelled one dropped
        def general_add(x, y):
            out = dict(x.coeffs)
            for m, c in y.coeffs.items():
                s = out.get(m, Fraction(0)) + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
            return out

        K = RadicalField([F(2), F(-3), F(5, 7)])
        rng = random.Random(11)

        def rand_elem(terms):
            masks = rng.sample(range(8), terms)
            return K.element({m: F(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for m in masks})

        scalars = [F(0), F(1), F(-3, 4), F(22, 7)]
        for _ in range(200):
            x = rand_elem(rng.choice([0, 1, 1, 1, 2, 3, 5]))
            y = rand_elem(rng.choice([0, 1, 1, 1, 2, 3, 8]))
            assert list((x * y).coeffs.items()) == list(general(x, y).items())
            q = rng.choice(scalars)
            want = list(general(x, K.rational(q)).items())
            assert list((x * q).coeffs.items()) == want
            assert list((q * x).coeffs.items()) == want
            assert list((x + y).coeffs.items()) == list(general_add(x, y).items())
            assert list((x + (-x)).coeffs.items()) == []
            want = list(general_add(x, K.rational(q)).items())
            assert list((x + q).coeffs.items()) == want
            assert list((q + x).coeffs.items()) == want
            assert list((x + 2).coeffs.items()) == list(general_add(x, K.rational(2)).items())
            # a sum that cancels the rational part drops mask 0
            c0 = x.coeffs.get(0)
            if c0 is not None:
                assert 0 not in (x + (-c0)).coeffs
        # shared radicals, the negative one included: sqrt(-3)**2 = -3
        a = K.element({0b011: F(2, 3)})
        b = K.element({0b110: F(-5)})
        assert (a * b).coeffs == {0b101: F(2, 3) * F(-5) * F(-3)}
        assert list((a * b).coeffs.items()) == list(general(a, b).items())
