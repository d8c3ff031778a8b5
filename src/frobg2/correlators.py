"""Correlator expressions in canonical coordinates.

Builds, for a fixed dimension n:

* ``u_jet_coeff(i, p, j)`` -- the U^{i,p}_j coefficients that express
  flows of the hierarchy through jets, by the recursion
  U^{i,p}_j = d_x U^{i,p-1}_j - sum_{k,s} Gamma^s_{kj} u_{k,x} U^{i,p-1}_s
  starting from U^{i,0}_j = delta_ij u_{j,x};
* ``correlator_C(t)`` -- genus-zero m-point functions (3 <= m <= 6),
  base C_{iii} = h_i^2 u_{i,x}, extended one index at a time by the
  standard recursion (derivative terms plus Christoffel corrections);
* ``correlator_D(t)`` -- genus-one functions (lengths 1..3), seeded by
  D_i = u_{i,x} dG/du_i + sum_j U^{j,1}_i/(24 u_{j,x}), the same
  recursion extending the length;
* ``g_gradient(i)`` -- the G-function gradient, in its direct form
  (``tests/test_correlators.py`` checks it pointwise against the
  equivalent Christoffel form);
* ``h_function(alg, i)`` -- the tau-gradient part of ``g_gradient``,
  which the genus-two correction term also uses;
* ``edge_weight(j)`` -- 1/(h_j^2 u_{j,x}), the weight a propagator edge
  contributes after contraction to canonical indices;
* ``leg_sum(genus, t, m)`` -- the vertex function of a dual graph: the
  genus-0 or genus-1 correlator at the vertex's edge indices t, summed
  over the indices of its m legs, which act as covariant
  x-derivatives through the connection terms ``connection(s, k)``.

Entries are memoized by sorted index tuple; the recursion always
appends the last index of the sorted tuple, which is legitimate because
the functions are totally symmetric (also covered by tests).  Every
index recursion lives on the table, and every graph contracted on one
table shares its memos (``graphs.graph_function``).
"""

from __future__ import annotations

from .algebra import Algebra
from .expr import (
    GK_JET, ZERO, add, const, div, gamma, generators, h, jet, mul, neg, pow_, sub, u,
)

C_MIN, C_MAX = 3, 6
D_MAX = 3


def h_function(alg, i):
    """The tau-gradient function 1/2 sum_{j != i} (u_i - u_j) gamma_ij^2."""
    terms = [
        mul(const("1/2"), sub(u(i), u(j)), pow_(gamma(i, j), 2))
        for j in alg.indices()
        if j != i
    ]
    return add(*terms)


class CorrelatorTable:
    def __init__(self, alg: Algebra):
        self.alg = alg
        self._u = {}
        self._c = {}
        self._d = {}
        self._g_grad = {}
        self._edge = {}
        # vertex functions under (genus, t, m), and the connection terms
        # A^s_k under (s, k)
        self.leg_sums = {}
        self.connections = {}

    # -- U coefficients ------------------------------------------------------

    def u_jet_coeff(self, i, p, j):
        key = (i, p, j)
        out = self._u.get(key)
        if out is not None:
            return out
        alg = self.alg
        if p == 0:
            out = jet(j, 1) if i == j else ZERO
        else:
            out = alg.total_x(self.u_jet_coeff(i, p - 1, j))
            corr = []
            for k in alg.indices():
                for s in alg.indices():
                    gam = alg.christoffel(s, k, j)
                    if gam is ZERO:
                        continue
                    prev = self.u_jet_coeff(i, p - 1, s)
                    if prev is ZERO:
                        continue
                    corr.append(mul(gam, jet(k, 1), prev))
            if corr:
                out = sub(out, add(*corr))
        self._u[key] = out
        return out

    # -- genus-zero correlators ----------------------------------------------

    def correlator_C(self, t):
        m = len(t)
        if not C_MIN <= m <= C_MAX:
            raise ValueError("C supports lengths %d..%d" % (C_MIN, C_MAX))
        return self._X(tuple(sorted(t)), self._c, self._c_base, C_MIN)

    def _c_base(self, t):
        i1, i2, i3 = t
        if i1 == i2 == i3:
            return mul(pow_(h(i1), 2), jet(i1, 1))
        return ZERO

    # -- genus-one correlators -------------------------------------------------

    def correlator_D(self, t):
        m = len(t)
        if not 1 <= m <= D_MAX:
            raise ValueError("D supports lengths 1..%d" % D_MAX)
        return self._X(tuple(sorted(t)), self._d, self._d_base, 1)

    def _d_base(self, t):
        (i,) = t
        # D_i = sum_{p=0,1} U^{j,p}_i dF1/du_j^{(p)};  U^{j,0}_i = delta u_{i,x}
        terms = [mul(jet(i, 1), self.g_gradient(i))]
        for j in self.alg.indices():
            ujp = self.u_jet_coeff(j, 1, i)
            if ujp is not ZERO:
                terms.append(mul(const("1/24"), ujp, pow_(jet(j, 1), -1)))
        return add(*terms)

    # -- shared recursion -------------------------------------------------------

    def _X(self, t, memo, base, base_len):
        """The correlator of index tuple t, extended one index at a time
        from ``base`` at length ``base_len``.  With a ``memo`` the tuples
        are sorted and each is built once; with memo None the recursion
        runs in the literal order of t and memoizes nothing."""
        out = None if memo is None else memo.get(t)
        if out is not None:
            return out
        if len(t) == base_len:
            out = base(t)
            if memo is not None:
                memo[t] = out
            return out
        head, last = t[:-1], t[-1]
        X = self._X(head, memo, base, base_len)
        alg = self.alg
        terms = []
        if X is not ZERO:
            # U^{k,0}_last = delta_{k,last} u_{last,x}: one u-derivative
            terms.append(mul(alg.partial_u(X, last), jet(last, 1)))
            # a jet absent from X contributes nothing; the rest by (order, index)
            jets = sorted((g.args[2], g.args[1]) for g in generators(X)
                          if g.args[0] == GK_JET)
            for p, k in jets:
                dp = alg.partial_jet(X, k, p)
                if dp is ZERO:
                    continue
                w = self.u_jet_coeff(k, p, last)
                if w is not ZERO:
                    terms.append(mul(dp, w))
        for pos in range(len(head)):
            ik = head[pos]
            for s in alg.indices():
                gam = alg.christoffel(s, ik, last)
                if gam is ZERO:
                    continue
                repl = head[:pos] + (s,) + head[pos + 1:]
                if memo is not None:
                    repl = tuple(sorted(repl))
                Xs = self._X(repl, memo, base, base_len)
                if Xs is ZERO:
                    continue
                terms.append(neg(mul(Xs, gam, jet(last, 1))))
        out = add(*terms)
        if memo is not None:
            memo[t] = out
        return out

    def correlator_ordered(self, t, kind="C"):
        """Recursion applied in the literal order of t (no sorting, no
        memo).  Exists so tests can confirm order-independence; the
        public entries always recurse on sorted tuples."""
        if kind == "C":
            return self._X(tuple(t), None, self._c_base, C_MIN)
        return self._X(tuple(t), None, self._d_base, 1)

    # -- vertex functions --------------------------------------------------------

    def connection(self, s, k):
        """A^s_k = sum_l Gamma^s_kl u_{l,x}, the connection term that a leg
        summed over its index applies to the vertex index k."""
        alg = self.alg
        return add(*[mul(alg.christoffel(s, k, l), jet(l, 1)) for l in alg.indices()])

    def leg_sum(self, genus, t, m):
        """The genus-``genus`` vertex function at sorted edge indices t,
        summed over every ordered index tuple of m legs.

        Since sum_j Gamma^s_kj = 0, summing the correlator recursion over
        one leg index turns its derivative terms into the total
        x-derivative and cancels the Christoffel terms between legs.  This
        leaves

            L(t, m) = d_x L(t, m-1) - sum_pos sum_s A^s_{t[pos]} L(t[pos->s], m-1)

        with A^s_k from :meth:`connection` and L(t, 0) the correlator at t.
        A tuple shorter than the recursion's base (3 for C, 1 for D) first
        takes one leg as a plain index sum.  Results are memoized in
        ``leg_sums`` under (genus, t, m); the n^2 connection terms are
        built together, in (s, k) order, at the first leg sum that needs
        one."""
        sums = self.leg_sums
        key = (genus, t, m)
        out = sums.get(key)
        if out is not None:
            return out
        alg = self.alg
        if m == 0:
            out = self.correlator_C(t) if genus == 0 else self.correlator_D(t)
        elif len(t) < (C_MIN if genus == 0 else 1):
            out = add(*[self.leg_sum(genus, tuple(sorted(t + (l,))), m - 1)
                        for l in alg.indices()])
        else:
            conn = self.connections
            if not conn:
                conn.update(((s, k), self.connection(s, k))
                            for s in alg.indices() for k in alg.indices())
            terms = [alg.total_x(self.leg_sum(genus, t, m - 1))]
            for pos, k in enumerate(t):
                for s in alg.indices():
                    a = conn[s, k]
                    if a is ZERO:
                        continue
                    moved = tuple(sorted(t[:pos] + (s,) + t[pos + 1:]))
                    rest = self.leg_sum(genus, moved, m - 1)
                    if rest is not ZERO:
                        terms.append(neg(mul(a, rest)))
            out = add(*terms)
        sums[key] = out
        return out

    # -- G-function gradient and edge weight --------------------------------------

    def g_gradient(self, i):
        out = self._g_grad.get(i)
        if out is not None:
            return out
        out = add(h_function(self.alg, i), *[
            mul(const("-1/24"), gamma(i, j), sub(div(h(i), h(j)), div(h(j), h(i))))
            for j in self.alg.indices()
            if j != i
        ])
        self._g_grad[i] = out
        return out

    def edge_weight(self, j):
        out = self._edge.get(j)
        if out is None:
            out = self._edge[j] = mul(pow_(h(j), -2), pow_(jet(j, 1), -1))
        return out
