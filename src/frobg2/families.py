"""Concrete semisimple Frobenius data for the verification suites.

Every family is sampled through its closed-form parametrization: the
superpotential's critical points supply the canonical coordinates, the
Hessian values supply the Lame coefficients h_i, and the printed
rotation-coefficient formulas supply gamma_ij.  The polynomial families
(``An``, ``Dn``) and the two-dimensional family are sampled exactly, in
a square-root extension of the rationals; the exceptional and orbifold
families go through high-precision complex root finding.  mpmath is
imported only inside the functions that make or read an mpmath number,
so an exact family's suite never loads it (see ``frobg2.numeric``).

Each sampler, like each residue check, is one draw that returns None
when the draw is degenerate.  One bounded loop, ``algebra.draw_stream``,
redraws it up to ``MAX_RESAMPLE`` times and then raises
``DegenerateSample``: a sample point is a stream of one, and the
residue checks of a suite, like the generic exact points of
``genus2``, are a longer stream whose draws are computed on forked
workers.  The family suites fork too (``algebra.forked_map``): each
point has its own seed.
A root finder that does not converge makes a degenerate draw; any
other error propagates.

Besides the samplers the module carries the families' closed-form
O1 - O2 values, the G-function gradient checks, and the residue-identity
suites that re-run the printed residue computations on freshly drawn
parameters.  O1 - O2 comes from a family's orbifold weights: (p, q) for
Apq, (2, 2, r) for Dr, none for the others.  Everything that differs
between family kinds is one ``Family`` record in ``FAMILIES``, keyed by
``FamilySpec.kind``; no other code branches on the kind, or decides
which checks a family supports.  A suite the family has no closed form
or residue computation for raises ``Unsupported`` before it builds or
forks anything.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

# MAX_RESAMPLE and DegenerateSample stay importable from here for callers
from .algebra import (
    MAX_RESAMPLE,
    Algebra,
    DegenerateSample,
    EvalContext,
    draw_stream,
    forked_map,
    random_jets,
    random_rational,
)
from .correlators import CorrelatorTable
from .exact import (
    NonConvergenceError,
    Poly,
    _is_zero,
    _to_mpc as _scalar_to_mpc,
    poly_roots,
    residue,
    residue_at_infinity,
)
from .expr import EXACT
from .genus2 import g2_function, o_difference_graphs, relation_expression
from .radicals import RadicalElem, RadicalField, is_square_fraction, radical_tower
from .report import (
    DEFAULT_PRECISION,
    DEFAULT_SEED,
    VerificationReport,
    _residual_ok,
    point_digest,
)


class Unsupported(ValueError):
    """The family has no closed form or residue suite for this check."""


# ---------------------------------------------------------------------------
# specs and sample points


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    n: int = 0
    p: int = 0
    q: int = 0
    r: int = 0
    mu1: Fraction = Fraction(0)

    @staticmethod
    def An(n):
        if n < 1:
            raise ValueError("An needs n >= 1")
        return FamilySpec("An", n=n)

    @staticmethod
    def Dn(n):
        if n < 3:
            raise ValueError("Dn needs n >= 3")
        return FamilySpec("Dn", n=n)

    @staticmethod
    def E6():
        return FamilySpec("E6", n=6)

    @staticmethod
    def E7():
        return FamilySpec("E7", n=7)

    @staticmethod
    def E8():
        return FamilySpec("E8", n=8)

    @staticmethod
    def ApqOrbifold(p, q):
        if p < 1 or q < 1:
            raise ValueError("ApqOrbifold needs p, q >= 1")
        return FamilySpec("Apq", n=p + q, p=p, q=q)

    @staticmethod
    def DrOrbifold(r):
        if r < 1:
            raise ValueError("DrOrbifold needs r >= 1")
        return FamilySpec("Dr", n=r + 3, r=r)

    @staticmethod
    def TwoDim(mu1):
        mu1 = Fraction(mu1)
        if mu1 == 0:
            raise ValueError("TwoDim needs mu1 != 0")
        return FamilySpec("TwoDim", n=2, mu1=mu1)

    @property
    def exact(self):
        return FAMILIES[self.kind].exact

    @property
    def label(self):
        """The kind, then its parameters in parentheses; it seeds every
        rng and digest of the family's points."""
        params = FAMILIES[self.kind].params
        if not params:
            return self.kind
        return "%s(%s)" % (self.kind, ",".join(str(getattr(self, p)) for p in params))


@dataclass
class SamplePoint:
    n: int
    us: list
    hs: list
    gammas: dict
    jets: dict
    kernel: object  # each context evaluates with a fresh kernel of its kind
    draw: tuple  # the sampler's raw draw, hashed by digest()
    internal: dict = field(default_factory=dict)

    def context(self):
        return EvalContext(self.n, self.us, self.hs, self.gammas, self.jets,
                           self.kernel.fresh())

    def digest(self):
        return point_digest(self.draw)


# ---------------------------------------------------------------------------
# shared sampling helpers


def _antiderivative(p):
    return Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])


def _monic_from_roots(roots, lead=Fraction(1)):
    out = Poly([lead])
    for r in roots:
        out = out * Poly([-r, Fraction(1)])
    return out


def _rand_mpc(rng):
    return random_rational(rng, 8), random_rational(rng, 8)


def _to_mpc(pair):
    import mpmath

    return mpmath.mpc(*map(_scalar_to_mpc, pair))


def _rat_deriv(num, den):
    """Derivative of num/den as a (num, den) pair, no cancellation."""
    return num.deriv() * den - num * den.deriv(), den * den


def _laurent_deriv(num, m):
    """d/dz of num(z)/z^m, returned as (numerator, m + 1)."""
    zpoly = Poly([Fraction(0), Fraction(1)])
    return num.deriv() * zpoly - m * num, m + 1


def _rotations(n, f):
    """The rotation coefficients {(i + 1, j + 1): f(i, j)} for i < j."""
    return {(i + 1, j + 1): f(i, j) for i in range(n) for j in range(i + 1, n)}


def _roots(poly, precision, away):
    """The roots of ``poly``, or None when the draw is degenerate: the
    root finder does not converge, two roots lie closer than 1e-3 of
    the largest distance between roots, or ``away(y)`` is that small at
    a root y."""
    import mpmath

    try:
        ys = poly_roots(poly, precision)
    except NonConvergenceError:
        return None
    dists = [abs(a - b) for a, b in combinations(ys, 2)]
    spread = max(dists, default=0)
    cut = spread * mpmath.mpf("1e-3")
    if spread == 0 or min(dists) < cut or not all(abs(away(y)) >= cut for y in ys):
        return None
    return ys


# ---------------------------------------------------------------------------
# exact samplers


def _an_zs(rng, n):
    """n rationals summing to zero, or None when two coincide."""
    zs = [random_rational(rng, 12) for _ in range(n - 1)]
    zs.append(-sum(zs, Fraction(0)))
    return zs if len(set(zs)) == n else None


def _sample_an(spec, rng, precision):
    n = spec.n
    zs = _an_zs(rng, n)
    if zs is None:
        return None
    lam1 = _monic_from_roots(zs, Fraction(n + 1))
    shift = random_rational(rng, 12)
    lam = _antiderivative(lam1) + Poly([shift])
    lam2 = lam1.deriv()
    rads = [lam2(z) for z in zs]
    if any(r == 0 for r in rads):
        return None
    _, roots = radical_tower(rads)
    hs = [roots[i] / rads[i] for i in range(n)]
    return {
        "us": [lam(z) for z in zs], "hs": hs,
        "gammas": _rotations(n, lambda i, j: hs[i] * hs[j] / (zs[i] - zs[j]) ** 2),
        "zs": zs, "lam": lam, "lam1": lam1, "shift": shift,
        "eta": [Fraction(1) / r for r in rads],
        "draw": ("An", n, zs, shift),
    }


def _dn_xs(rng, n):
    """n - 1 free nonzero rationals plus the reciprocal-sum closure."""
    xs = [random_rational(rng, 12) for _ in range(n - 1)]
    if any(x == 0 for x in xs):
        return None
    s = sum((Fraction(1) / x for x in xs), Fraction(0))
    if s == 0:
        return None
    xs.append(Fraction(-1) / s)
    return xs if len(set(xs)) == n else None


def _dn_lambda(xs, n, shift):
    """lambda = N(x)/x with the reciprocal-sum constraint killing the
    logarithmic term of the antiderivative."""
    prod = _monic_from_roots(xs)
    c = list(prod.coeffs)
    if (n - 1) * c[1] != 0:
        raise AssertionError("xi^-1 coefficient of the integrand survived")
    poly_part = [Fraction(0)] * n
    poly_part[0] = shift
    for j in range(2, n + 1):
        poly_part[j - 1] = Fraction(n - 1) * c[j] / (j - 1)
    num = Poly(poly_part) * Poly([Fraction(0), Fraction(1)])
    return num + Poly([-Fraction(n - 1) * c[0]])  # N, lambda(x) = N(x) / x


def _sample_dn(spec, rng, precision):
    n = spec.n
    xs = _dn_xs(rng, n)
    if xs is None:
        return None
    shift = random_rational(rng, 12)
    num = _dn_lambda(xs, n, shift)
    n2, m2 = _laurent_deriv(*_laurent_deriv(num, 1))  # lambda'' = n2 / z^3
    rads = [2 * x * (n2(x) / x**m2) for x in xs]
    if any(r == 0 for r in rads):
        return None
    _, roots = radical_tower(rads)
    hs = [roots[i] / rads[i] for i in range(n)]
    return {
        "us": [num(x) / x for x in xs], "hs": hs,
        "gammas": _rotations(n, lambda i, j: (
            (xs[i] + xs[j]) * hs[i] * hs[j] / (xs[i] - xs[j]) ** 2)),
        "xs": xs, "num": num, "shift": shift,
        "eta": [Fraction(1) / r for r in rads],
        "draw": ("Dn", n, xs, shift),
    }


def _sample_twodim(spec, rng, precision):
    fld = RadicalField([Fraction(-1)])
    imag = fld.sqrt_gen(0)
    while True:
        u1, u2 = random_rational(rng, 50), random_rational(rng, 50)
        if u1 != u2:
            break
    h2 = random_rational(rng, 50)
    while h2 == 0:
        h2 = random_rational(rng, 50)
    # h1 is a square root of -h2^2; the branch is calibrated against the
    # measured invariants of genuine two-dimensional points (A1xA1, A2 and
    # the (1,1) orbifold land at mu1 = 0, 1/6 and 1/2 respectively, where
    # the genus-two correction vanishes identically)
    hs = [-imag * h2, fld.rational(h2)]
    gammas = {(1, 2): imag * (-spec.mu1) / (u1 - u2)}
    return {
        "us": [u1, u2], "hs": hs, "gammas": gammas,
        "eta": [hs[0] * hs[0], hs[1] * hs[1]],
        "draw": ("TwoDim", str(spec.mu1), u1, u2, h2),
    }


# ---------------------------------------------------------------------------
# numeric samplers


def _e68_polys(ts, one):
    """p(y) = sum t_k y^{nu-k}, q(y) = y^{nu+1} + sum t_{nu+k} y^{nu-k},
    their derivatives and R = 3 q'^2 + p p'^2, for the 2 nu parameters
    ``ts``; ``one`` is the unit of their scalar type."""
    nu = len(ts) // 2
    p = Poly(list(reversed(ts[:nu])))
    q = Poly(list(reversed(ts[nu:])) + [0 * one, one])
    pp, qp = p.deriv(), q.deriv()
    return p, q, pp, qp, 3 * (qp * qp) + p * (pp * pp)


def _sample_e68(spec, rng, precision):
    import mpmath

    draws = [_rand_mpc(rng) for _ in range(spec.n)]
    if draws[0] == (0, 0):
        return None
    p, q, pp, qp, big_r = _e68_polys([_to_mpc(d) for d in draws], mpmath.mpf(1))
    ys = _roots(big_r, precision, pp)
    if ys is None:
        return None
    rp = big_r.deriv()
    xs = [-qp(y) / pp(y) for y in ys]
    eta = [-pp(y) / rp(y) for y in ys]
    if any(v == 0 for v in eta):
        return None
    hs = [mpmath.sqrt(v) for v in eta]
    return {
        "us": [x**3 + p(y) * x + q(y) for x, y in zip(xs, ys)], "hs": hs,
        "gammas": _rotations(spec.n, lambda i, j: (
            3 * hs[i] * hs[j] * (xs[i] + xs[j]) / (ys[i] - ys[j]) ** 2)),
        "draw": (spec.kind, draws),
        "ys": ys, "xs": xs, "eta": eta, "p": p, "q": q, "R": big_r,
    }


def _sample_e7(spec, rng, precision):
    import mpmath

    draws = [_rand_mpc(rng) for _ in range(7)]
    if draws[0] == (0, 0):
        return None
    t = [_to_mpc(d) for d in draws]
    p = Poly([t[1], t[0]])
    q = Poly([t[3], t[2], mpmath.mpf(0), mpmath.mpf(1)])
    r = Poly([t[6], t[5], t[4]])
    pp, qp, rp_ = p.deriv(), q.deriv(), r.deriv()
    big_p = 2 * (p * pp) - 3 * qp
    big_q = 3 * rp_ - pp * q
    big_s = q * qp - 2 * (p * rp_)
    big_r = big_q * big_q - big_p * big_s
    ys = _roots(big_r, precision, big_p)
    if ys is None:
        return None
    rd = big_r.deriv()
    xs = [big_q(y) / big_p(y) for y in ys]
    eta = [big_p(y) / rd(y) for y in ys]
    if any(v == 0 for v in eta):
        return None
    hs = [mpmath.sqrt(v) for v in eta]
    xt = [x + p(y) / 3 for x, y in zip(xs, ys)]
    return {
        "us": [x**3 + p(y) * x**2 + q(y) * x + r(y) for x, y in zip(xs, ys)],
        "hs": hs,
        "gammas": _rotations(7, lambda i, j: (
            3 * hs[i] * hs[j] * (xt[i] + xt[j]) / (ys[i] - ys[j]) ** 2)),
        "draw": ("E7", draws),
        "ys": ys, "xs": xs, "eta": eta, "p": p, "q": q, "rpoly": r,
    }


def _apq_numerator(pdeg, qdeg, a, b, tn, tn1):
    """lambda(z) = N(z)/z^q for the A-orbifold superpotential."""
    import mpmath

    one = mpmath.mpf(1)
    p1 = [mpmath.mpf(0)] * (pdeg + 1)
    p1[pdeg] = one
    for k in range(1, pdeg):
        p1[k] = a[k]
    p1[0] = tn1
    num = Poly(p1) * Poly([mpmath.mpf(0)] * qdeg + [one])
    tail = [mpmath.mpf(0)] * (qdeg + 1)
    tail[0] = tn**qdeg
    for k in range(1, qdeg):
        tail[qdeg - k] = b[k] * tn**k
    return num + Poly(tail)


def _sample_apq(spec, rng, precision):
    import mpmath

    pdeg, qdeg = spec.p, spec.q
    a = {k: _to_mpc(_rand_mpc(rng)) for k in range(1, pdeg)}
    b = {k: _to_mpc(_rand_mpc(rng)) for k in range(1, qdeg)}
    adraw = sorted((k, _fracpair(v)) for k, v in a.items())
    bdraw = sorted((k, _fracpair(v)) for k, v in b.items())
    tn_draw = _rand_mpc(rng)
    if tn_draw == (0, 0):
        return None
    tn = _to_mpc(tn_draw)
    tn1_draw = _rand_mpc(rng)
    tn1 = _to_mpc(tn1_draw)
    num = _apq_numerator(pdeg, qdeg, a, b, tn, tn1)
    n1, m1 = _laurent_deriv(num, qdeg)  # lambda' = n1 / z^(q+1)
    n2, m2 = _laurent_deriv(n1, m1)     # lambda'' = n2 / z^(q+2)
    zs = _roots(n1, precision, lambda z: z)
    if zs is None:
        return None
    eta_up = [-z * z * (n2(z) / z**m2) for z in zs]
    if any(v == 0 for v in eta_up):
        return None
    hs = [1 / mpmath.sqrt(v) for v in eta_up]
    return {
        "us": [num(z) / z**qdeg for z in zs], "hs": hs,
        "gammas": _rotations(spec.n, lambda i, j: (
            -hs[i] * hs[j] * zs[i] * zs[j] / (zs[i] - zs[j]) ** 2)),
        "draw": ("Apq", pdeg, qdeg, adraw, bdraw, tn_draw, tn1_draw),
        "zs": zs, "eta": [1 / v for v in eta_up],
        "a": a, "b": b, "tn": tn, "tn1": tn1,
    }


def _fracpair(v):
    import mpmath

    return (mpmath.nstr(v.real, 12), mpmath.nstr(v.imag, 12))


def _sample_dr(spec, rng, precision):
    import mpmath

    r = spec.r
    cdraw = [_rand_mpc(rng) for _ in range(r + 1)]
    if cdraw[-1] == (0, 0):
        return None
    t1_draw, t2_draw = _rand_mpc(rng), _rand_mpc(rng)
    if t1_draw == (0, 0) or t2_draw == (0, 0):
        return None
    c = [_to_mpc(d) for d in cdraw]
    t1, t2 = _to_mpc(t1_draw), _to_mpc(t2_draw)
    den = Poly([mpmath.mpf(-4), mpmath.mpf(0), mpmath.mpf(1)])
    num = Poly(c) * den + Poly([t1 * t1 + t2 * t2, t1 * t2])
    n1, d1 = _rat_deriv(num, den)
    zs = _roots(Poly([x / n1.coeffs[-1] for x in n1.coeffs]), precision,
                lambda z: z * z - 4)
    if zs is None:
        return None
    n2, d2 = _rat_deriv(n1, d1)
    eta_up = [(4 - z * z) * (n2(z) / d2(z)) for z in zs]
    if any(v == 0 for v in eta_up):
        return None
    hs = [1 / mpmath.sqrt(v) for v in eta_up]
    return {
        "us": [num(z) / (z * z - 4) for z in zs], "hs": hs,
        "gammas": _rotations(spec.n, lambda i, j: (
            hs[i] * hs[j] * (4 - zs[i] * zs[j]) / (zs[i] - zs[j]) ** 2)),
        "draw": ("Dr", r, cdraw, t1_draw, t2_draw),
        "zs": zs, "eta": [1 / v for v in eta_up],
        "c": c, "t1": t1, "t2": t2,
    }


def _working_precision(spec, precision):
    """The block a family's points are drawn and its trials run in:
    ``mpmath.workprec(precision + GUARD_BITS)`` for a numeric family, so
    that what runs on mpmath's operators (the sampler and its roots, the
    gradient Jacobian, ``val - want``, ``_res_str``) reads no ambient
    precision; a null context for an exact family, which loads no mpmath."""
    if spec.exact:
        return nullcontext()
    import mpmath

    from .numeric import GUARD_BITS

    return mpmath.workprec(precision + GUARD_BITS)


def sample(spec, seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    """Draw a SamplePoint of the family; pure in (spec, seed, precision).
    A draw whose u_i are not distinct is degenerate like any other."""
    rng = random.Random("%s|%s" % (seed, spec.label))
    sampler = FAMILIES[spec.kind].sampler

    def draw():
        data = sampler(spec, rng, precision)
        if data is not None and len(set(data["us"])) == spec.n:
            return data
        return None

    with _working_precision(spec, precision):
        (data,) = draw_stream(draw, lambda data: data, 1, spec.label)
    if spec.exact:
        kernel = EXACT
    else:
        from .numeric import NumericKernel

        kernel = NumericKernel(precision)
    return SamplePoint(
        n=spec.n, us=data.pop("us"), hs=data.pop("hs"), gammas=data.pop("gammas"),
        jets=random_jets(rng, spec.n, 50),
        kernel=kernel,
        draw=data.pop("draw"),
        internal=data,  # what is left: the family's own parameters
    )


# ---------------------------------------------------------------------------
# closed forms


def closed_form_o_difference(spec):
    """The family's O1 - O2 value as an exact rational: the sum of
    (a^3 - a)/6 over its orbifold weights a."""
    weights = FAMILIES[spec.kind].orbifold_weights(spec)
    return sum((Fraction(a**3 - a, 6) for a in weights), Fraction(0))


# ---------------------------------------------------------------------------
# G-function gradients
#
# The parameter bases give the rows of the u-to-parameter Jacobian: the
# partial of lambda in each sampled parameter, as a function evaluated
# at the critical points.  The distinguished parameter (t_n or the
# leading coefficient) is listed last and returned with the rows.


def _apq_parameter_basis(spec, point):
    import mpmath

    zs = point.internal["zs"]
    pdeg, qdeg = spec.p, spec.q
    b = point.internal["b"]
    tn = point.internal["tn"]
    cols = []
    for k in range(1, pdeg):
        cols.append([z**k for z in zs])
    for k in range(1, qdeg):
        cols.append([(tn / z) ** k for z in zs])
    cols.append([mpmath.mpf(1)] * len(zs))  # t_{n-1}
    dtn = []
    for z in zs:
        acc = qdeg * tn ** (qdeg - 1) / z**qdeg
        for k in range(1, qdeg):
            acc += b[k] * k * tn ** (k - 1) / z**k
        dtn.append(acc)
    cols.append(dtn)
    return cols, tn


def _dr_parameter_basis(spec, point):
    zs = point.internal["zs"]
    r = spec.r
    t1, t2 = point.internal["t1"], point.internal["t2"]
    cols = []
    for k in range(r):
        cols.append([z**k for z in zs])
    cols.append([(2 * t1 + z * t2) / (z * z - 4) for z in zs])
    cols.append([(z * t1 + 2 * t2) / (z * z - 4) for z in zs])
    cols.append([z**r for z in zs])  # leading coefficient, kept last
    return cols, point.internal["c"][r]


def _log_tn_gradient(spec, point):
    """d(log t_n)/du_i for all i, through the parameter Jacobian."""
    import mpmath

    cols, tn = FAMILIES[spec.kind].parameter_basis(spec, point)
    n = point.n
    jac = mpmath.matrix(n, n)
    for i in range(n):
        for m in range(n):
            jac[i, m] = cols[m][i]
    inv = jac**-1
    return [inv[n - 1, i] / tn for i in range(n)]


def _gradient_trials(spec, precision):
    """Trials comparing the genus-one G-function gradient with the
    family's closed form: zero for the polynomial and exceptional
    families, eta_ii/24 with d(log t_n)/du_i = -c eta_ii on the orbifold
    families (c is the record's ``log_scale``)."""
    family = FAMILIES[spec.kind]
    if not family.ade and family.parameter_basis is None:
        raise Unsupported("no G-function closed form for the %s family" % spec.label)
    table = CorrelatorTable(Algebra(spec.n))
    exprs = [table.g_gradient(i) for i in table.alg.indices()]

    def trials(point):
        ctx = point.context()
        grads = [ctx.evaluate(e) for e in exprs]
        if family.ade:
            return [(_res_str(val), ctx.kernel.passes(val)) for val in grads]
        scale = family.log_scale(spec)
        eta = point.internal["eta"]
        logt = _log_tn_gradient(spec, point)
        out = []
        for i, val in enumerate(grads):
            res1 = val - eta[i] / 24
            res2 = logt[i] + scale * eta[i]
            ok = ctx.kernel.passes(res1) and _residual_ok(res2, precision, eta[i])
            out.append((_res_str(max(abs(res1), abs(res2))), ok))
        return out

    return trials


def _res_str(val):
    if isinstance(val, (Fraction, int)):
        return str(val)
    if isinstance(val, RadicalElem):
        return repr(val)
    import mpmath

    return mpmath.nstr(abs(mpmath.mpc(val)), 8)


# ---------------------------------------------------------------------------
# residue identity suites


# Each ``*_residue_checks(spec, rng)`` is one draw of fresh exact
# parameters.  It makes all of its draws from ``rng`` at once and
# returns None when they are degenerate, or else a compute: a function
# of no arguments that returns the named pairs of values that must both
# vanish and the draw, or None when the draw turns out degenerate.


def _an_residue_checks(spec, rng):
    zs = _an_zs(rng, spec.n)
    return None if zs is None else lambda: _an_residues(zs)


def _an_residues(zs):
    lam1 = _monic_from_roots(zs, Fraction(len(zs) + 1))
    lam2 = lam1.deriv()
    lam4 = lam2.deriv().deriv()
    checks = []
    total = Fraction(0)
    for i, zi in enumerate(zs):
        lhs = sum(
            (lam2(zi) + lam2(zj)) / ((zi - zj) ** 2 * lam2(zj))
            for j, zj in enumerate(zs)
            if j != i
        )
        num = lam2 + Poly([lam2(zi)])
        den = Poly([-zi, Fraction(1)]) * Poly([-zi, Fraction(1)]) * lam1
        res = residue(num, den, zi)
        rhs = -lam4(zi) / (6 * lam2(zi))
        checks.append(("pole-sum i=%d" % (i + 1),
                       lhs + res, lhs - rhs))
        total += lhs
    checks.append(("infinity", residue_at_infinity(lam4, lam1), total))
    return checks, zs


def _dn_residue_checks(spec, rng):
    xs = _dn_xs(rng, spec.n)
    if xs is None:
        return None
    shift = random_rational(rng, 12)
    return lambda: _dn_residues(xs, shift)


def _dn_residues(xs, shift):
    num = _dn_lambda(xs, len(xs), shift)
    zpoly = Poly([Fraction(0), Fraction(1)])
    n1, m1 = _laurent_deriv(num, 1)   # lambda'   = n1 / z^2
    n2, m2 = _laurent_deriv(n1, m1)   # lambda''  = n2 / z^3
    n3, m3 = _laurent_deriv(n2, m2)   # lambda''' = n3 / z^4
    n4, _ = _laurent_deriv(n3, m3)    # lambda'''' = n4 / z^5

    def lam2(x):
        return n2(x) / x**3

    checks = []
    for i, xi in enumerate(xs):
        l2i = lam2(xi)
        direct = sum(
            (xi + xj) * (xi * l2i + xj * lam2(xj))
            / ((xi - xj) ** 2 * xj * lam2(xj))
            for j, xj in enumerate(xs)
            if j != i
        )
        # f(z) = (z + x_i)(z lam''(z) + x_i lam''(x_i)) / ((z-x_i)^2 z lam'(z))
        fnum = Poly([xi, Fraction(1)]) * (n2 + Poly([Fraction(0)] * 2
                                                    + [xi * l2i]))
        fden = (zpoly * Poly([-xi, Fraction(1)]) * Poly([-xi, Fraction(1)])
                * n1)
        pole_sum = sum(residue(fnum, fden, xj)
                       for j, xj in enumerate(xs) if j != i)
        other = residue(fnum, fden, Fraction(0)) + residue(fnum, fden, xi)
        # the third coefficient is x_i/3, fixing a misprinted factor 3
        printed = (Fraction(1) / xi - (n3(xi) / xi**4) / l2i
                   - xi * (n4(xi) / xi**5) / (3 * l2i))
        checks.append(("pole-sum i=%d" % (i + 1), direct - pole_sum,
                       direct + other))
        checks.append(("printed i=%d" % (i + 1), direct - printed,
                       Fraction(0)))
    # global chain: sum 1/x_i + (res_0 + res_inf)(lam'''/lam' + 3 z lam'''' / lam')
    gnum = n3 + 3 * n4
    gden = zpoly * zpoly * n1
    recip = sum((Fraction(1) / x for x in xs), Fraction(0))
    glob = (recip + residue(gnum, gden, Fraction(0))
            + residue_at_infinity(gnum, gden))
    checks.append(("global", glob, recip))
    return checks, (xs, shift)


def _e6_g_parts(ts):
    """R and the proof's meromorphic function g = gnum/gden."""
    _, _, pp, qp, big_r = _e68_polys(ts, Fraction(1))
    r1, r2, r3 = big_r.deriv(), big_r.deriv(2), big_r.deriv(3)
    half = Fraction(3, 2)
    gnum = (half * (pp * qp.deriv(2) + pp.deriv(2) * qp) * r1
            - half * (pp * qp.deriv() + pp.deriv() * qp) * r2
            + qp * r3 * pp)
    gden = pp * pp * big_r
    return big_r, gnum, gden


def _e6_residue_checks(spec, rng):
    ts = [random_rational(rng, 9) for _ in range(6)]
    return None if ts[0] == 0 else lambda: _e6_residues(ts)


def _e6_residues(ts):
    big_r, gnum, gden = _e6_g_parts(ts)
    y0 = -ts[1] / (2 * ts[0])
    if big_r(y0) == 0:
        return None
    at_inf = residue_at_infinity(gnum, gden)
    at_root = residue(gnum, gden, y0)
    want = Fraction(12) / ts[0]
    return [
        ("infinity", at_inf - want, at_inf + at_root),
        ("p-prime root", at_root + want, Fraction(0)),
    ], "rational t draw"


def _e8_residue_checks(spec, rng):
    ts = [random_rational(rng, 9) for _ in range(8)]
    if ts[0] == 0:
        return None
    disc = 4 * ts[1] ** 2 - 12 * ts[0] * ts[2]
    if disc == 0 or is_square_fraction(disc):
        return None
    return lambda: _e8_residues(ts, disc)


def _e8_residues(ts, disc):
    big_r, gnum, gden = _e6_g_parts(ts)
    fld = RadicalField([disc])
    root = fld.sqrt_gen(0)
    a1 = (fld.rational(-2 * ts[1]) + root) / (6 * ts[0])
    a2 = (fld.rational(-2 * ts[1]) - root) / (6 * ts[0])
    if (fld.rational(1) * big_r(a1)).is_zero():
        return None
    lift = lambda poly: Poly([fld.rational(c) for c in poly.coeffs])
    gnum_f, gden_f = lift(gnum), lift(gden)
    res1 = residue(gnum_f, gden_f, a1)
    res2 = residue(gnum_f, gden_f, a2)
    at_inf = residue_at_infinity(gnum, gden)
    t1, t2, t3 = ts[0], ts[1], ts[2]
    t5, t6 = ts[4], ts[5]
    printed = (fld.rational(8 * (10 * t2 * t3 + 9 * t1 * t2 * t5
                                 - 9 * t1**2 * t6))
               / (9 * t1**3 * (a1 - a2) ** 3))
    return [
        ("root pair", res1 + res2, res1 - printed),
        ("infinity", at_inf, Fraction(0)),
    ], "rational t draw"


def residue_identity_suite(spec, seed=DEFAULT_SEED, draws=5):
    """Re-run the printed residue computations on fresh exact parameter
    draws; every check is an exact zero test.  A degenerate draw is
    redrawn like a degenerate sample point.  The draws come from one
    random stream, so they are made here in stream order and computed
    on forked workers (``algebra.draw_stream``), which send back only
    each trial's name, residual string and pass flag."""
    residue_checks = FAMILIES[spec.kind].residue_checks
    if residue_checks is None:
        raise Unsupported("no residue suite for the %s family" % spec.label)
    report = VerificationReport(
        command="verify-residues", n=spec.n, family=spec.label, seed=seed,
    )
    rng = random.Random("%s|%s|residues" % (seed, spec.label))

    def trials(compute):
        out = compute()
        if out is None:
            return None
        checks, draw = out
        digest = point_digest((spec.label, draw))
        return [(digest + ":" + name,
                 "%s | %s" % (_res_str(first), _res_str(second)),
                 _is_zero(first) and _is_zero(second))
                for name, first, second in checks]

    for draw_trials in draw_stream(lambda: residue_checks(spec, rng), trials,
                                   draws, spec.label):
        for trial in draw_trials:
            report.add_trial(*trial)
    return report


# ---------------------------------------------------------------------------
# family-level verification suites


def _family_suite(command, spec, points, seed, precision, trials, **params):
    """The report of ``trials(point)`` on ``points`` family points drawn
    at seeds seed, seed + 1, ...; ``trials`` returns one (residual, ok)
    pair per trial.  Sampling, the trials and their residual strings
    all run at precision + GUARD_BITS on a numeric family, whatever the
    ambient precision (``_working_precision``).
    Each point depends only on its seed, so the points are shared out
    among forked workers (``algebra.forked_map``); their trials are reported
    in point order, and the report is the same for any worker count."""
    report = VerificationReport(
        command=command, n=spec.n, family=spec.label,
        seed=seed, precision=precision, params=params,
    )

    def rows(k):
        point = sample(spec, seed=seed + k, precision=precision)
        digest = point.digest()
        return [(digest, res, ok) for res, ok in trials(point)]

    with _working_precision(spec, precision):
        for point_rows in forked_map(rows, range(points)):
            for row in point_rows:
                report.add_trial(*row)
    return report


def _evaluates_to(build, spec, want=Fraction(0)):
    """Trials that the DAG ``build`` makes at n evaluates to ``want``."""
    expr = build(Algebra(spec.n))

    def trials(point):
        ctx = point.context()
        val = ctx.evaluate(expr) - want
        return [(_res_str(val), ctx.kernel.passes(val))]

    return trials


def g2_vanishing_check(spec, points=3, seed=DEFAULT_SEED,
                       precision=DEFAULT_PRECISION):
    """The genus-two correction term evaluates to zero on the family:
    exactly on the exact families, below the relative tolerance on the
    numeric ones."""
    return _family_suite("verify-g2", spec, points, seed, precision,
                         _evaluates_to(g2_function, spec))


def relation_family_check(spec, points=3, seed=DEFAULT_SEED,
                          precision=DEFAULT_PRECISION):
    """The sixteen-term graph combination evaluates to zero on family
    points (it equals the second x-derivative of O1 - O2, which is a
    constant on every family)."""
    return _family_suite("verify-relation", spec, points, seed, precision,
                         _evaluates_to(relation_expression, spec))


def o_difference_check(spec, points=3, seed=DEFAULT_SEED,
                       precision=DEFAULT_PRECISION):
    """O1 - O2 evaluated through the graph contractions matches the
    family's closed-form value."""
    want = closed_form_o_difference(spec)
    return _family_suite("compute-odiff", spec, points, seed, precision,
                         _evaluates_to(o_difference_graphs, spec, want),
                         closed_form=str(want))


def gfunction_check(spec, points=3, seed=DEFAULT_SEED,
                    precision=DEFAULT_PRECISION):
    """The genus-one G-function gradients match the family's closed
    form at every point, one trial per gradient component."""
    return _family_suite("verify-gfunction", spec, points, seed, precision,
                         _gradient_trials(spec, precision))


# ---------------------------------------------------------------------------
# the family table: everything that differs between family kinds


@dataclass(frozen=True)
class Family:
    flag: str  # the CLI's --family value
    params: tuple  # the constructor's arguments, named as CLI options
    make: Callable  # the FamilySpec constructor
    sampler: Callable  # (spec, rng, precision) -> one draw, None if degenerate
    exact: bool
    ade: bool = False  # the G-function gradient vanishes
    orbifold_weights: Callable = lambda spec: ()  # see closed_form_o_difference
    parameter_basis: Optional[Callable] = None  # see _log_tn_gradient
    log_scale: Optional[Callable] = None  # spec -> c in d(log t_n)/du_i = -c eta_ii
    residue_checks: Optional[Callable] = None  # see residue_identity_suite


FAMILIES = {
    "An": Family("an", ("n",), FamilySpec.An, _sample_an,
                 exact=True, ade=True, residue_checks=_an_residue_checks),
    "Dn": Family("dn", ("n",), FamilySpec.Dn, _sample_dn,
                 exact=True, ade=True, residue_checks=_dn_residue_checks),
    "E6": Family("e6", (), FamilySpec.E6, _sample_e68,
                 exact=False, ade=True, residue_checks=_e6_residue_checks),
    "E7": Family("e7", (), FamilySpec.E7, _sample_e7, exact=False, ade=True),
    "E8": Family("e8", (), FamilySpec.E8, _sample_e68,
                 exact=False, ade=True, residue_checks=_e8_residue_checks),
    "Apq": Family("apq", ("p", "q"), FamilySpec.ApqOrbifold, _sample_apq, exact=False,
                  orbifold_weights=lambda s: (s.p, s.q),
                  parameter_basis=_apq_parameter_basis, log_scale=lambda s: 1),
    "Dr": Family("dr", ("r",), FamilySpec.DrOrbifold, _sample_dr,
                 exact=False, orbifold_weights=lambda s: (2, 2, s.r),
                 parameter_basis=_dr_parameter_basis, log_scale=lambda s: s.r),
    "TwoDim": Family("2d", ("mu1",), FamilySpec.TwoDim, _sample_twodim, exact=True),
}
