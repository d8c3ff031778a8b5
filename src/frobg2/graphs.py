"""Genus-labeled dual graphs and their contraction into jet expressions.

A :class:`DualGraph` is a connected multigraph whose vertices carry a
genus label (0 or 1), with self-loops and per-vertex leg counts.  The
contraction rules turn a graph into a differential-polynomial
expression: a genus-0 vertex of valence m contributes the genus-zero
m-point function, a genus-1 vertex the genus-one function, and every
edge carries the diagonal propagator weight 1/(h_j^2 u_{j,x}) with one
shared summation index.  A leg, summed over its index, acts on its
vertex as a covariant x-derivative (see :func:`_leg_sum`), so a
vertex is built from the correlator at its edge indices only.

``enumerate_admissible`` generates the canonical genus-two graph
family from four structural properties: (1) stability and genus count
(sum of genera plus first Betti number equals 2), (2) edge and leg
counts both equal N_v + B_1 - 1 (equivalently, jet degree two of the
contraction), (3) no disconnecting genus-0-to-genus-0 edge, (4) at
most one vertex of minimal valence, and none at all when there is
exactly one genus-1 vertex.  Graphs differing by subdividing an edge
with a one-leg genus-0 vertex represent the same function and are
identified; exactly sixteen classes survive, matching the sixteen
named contractions of the decomposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, permutations, product

from .expr import ZERO, add, jet, mul, neg
from .correlators import CorrelatorTable


@dataclass(frozen=True)
class DualGraph:
    genera: tuple
    edges: tuple  # pairs (a, b) with a <= b, 0-based vertex ids, sorted
    legs: tuple

    @staticmethod
    def make(genera, edges, legs):
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        return DualGraph(tuple(genera), edges, tuple(legs))

    @property
    def n_vertices(self):
        return len(self.genera)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_legs(self):
        return sum(self.legs)

    def first_betti(self):
        return self.n_edges - self.n_vertices + 1

    def valence(self, v):
        ends = sum((a == v) + (b == v) for a, b in self.edges)
        return ends + self.legs[v]

    def is_connected(self):
        if self.n_vertices == 1:
            return True
        adj = {v: set() for v in range(self.n_vertices)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n_vertices

    def is_stable(self):
        return all(2 * g - 2 + self.valence(v) > 0 for v, g in enumerate(self.genera))

    def is_1pi(self):
        """No genus-0 to genus-0 edge whose removal disconnects the graph."""
        for idx, (a, b) in enumerate(self.edges):
            if a == b:
                continue
            if self.genera[a] != 0 or self.genera[b] != 0:
                continue
            rest = self.edges[:idx] + self.edges[idx + 1:]
            if not DualGraph.make(self.genera, rest, self.legs).is_connected():
                return False
        return True

    def relabeled(self, perm):
        """perm maps old vertex id -> new vertex id."""
        genera = [0] * self.n_vertices
        legs = [0] * self.n_vertices
        for v in range(self.n_vertices):
            genera[perm[v]] = self.genera[v]
            legs[perm[v]] = self.legs[v]
        edges = [(perm[a], perm[b]) for a, b in self.edges]
        return DualGraph.make(genera, edges, legs)

    def to_json(self):
        return json.dumps(
            {
                "vertices": list(self.genera),
                "edges": [list(e) for e in self.edges],
                "legs": list(self.legs),
            }
        )

    def to_dot(self, name="G"):
        lines = ["graph %s {" % name]
        for v, g in enumerate(self.genera):
            shape = "circle" if g == 1 else "point"
            lines.append('  v%d [label="g=%d" shape=%s];' % (v, g, shape))
            for k in range(self.legs[v]):
                lines.append("  v%d_leg%d [shape=none label=\"\"];" % (v, k))
                lines.append("  v%d -- v%d_leg%d;" % (v, v, k))
        for a, b in self.edges:
            lines.append("  v%d -- v%d;" % (a, b))
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# canonical form


def _label_canonical(g: DualGraph) -> DualGraph:
    best = None
    for perm in permutations(range(g.n_vertices)):
        cand = g.relabeled(perm)
        key = (cand.genera, cand.edges, cand.legs)
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def smooth_subdividers(g: DualGraph) -> DualGraph:
    """Remove genus-0 valence-3 vertices with one leg sitting in the
    middle of an edge; their contraction is the identity."""
    while True:
        target = None
        for v in range(g.n_vertices):
            if g.genera[v] != 0 or g.legs[v] != 1:
                continue
            incident = [e for e in g.edges if v in e]
            if len(incident) != 2 or any(a == b for a, b in incident):
                continue
            target = v
            break
        if target is None:
            return g
        nbrs = []
        rest = []
        for a, b in g.edges:
            if target in (a, b):
                nbrs.append(b if a == target else a)
            else:
                rest.append((a, b))
        rest.append(tuple(sorted(nbrs)))
        remap = [v - (v > target) for v in range(g.n_vertices)]
        genera = [g.genera[v] for v in range(g.n_vertices) if v != target]
        legs = [g.legs[v] for v in range(g.n_vertices) if v != target]
        edges = [(remap[a], remap[b]) for a, b in rest]
        g = DualGraph.make(genera, edges, legs)


def canonicalize(g: DualGraph) -> DualGraph:
    return _label_canonical(smooth_subdividers(g))


# ---------------------------------------------------------------------------
# contraction into expressions


def _connection(alg, s, k):
    """A^s_k = sum_l Gamma^s_kl u_{l,x}, the connection term that a leg
    summed over its index applies to the vertex index k."""
    return add(*[mul(alg.christoffel(s, k, l), jet(l, 1)) for l in alg.indices()])


def graph_function(g: DualGraph, table: CorrelatorTable):
    """The contraction of g: the sum over all edge index assignments of
    the product of its vertex functions and edge weights.

    A vertex function is the vertex correlator summed over the indices
    of the vertex's legs; see :func:`_leg_sum`.  Its memo lives on the
    table, so every graph contracted on one table shares it."""
    incident = [[] for _ in range(g.n_vertices)]
    for eid, (a, b) in enumerate(g.edges):
        incident[a].append(eid)
        if b == a:
            incident[a].append(eid)
        else:
            incident[b].append(eid)
    for v in range(g.n_vertices):
        deg = len(incident[v]) + g.legs[v]
        if g.genera[v] == 0 and not 3 <= deg <= 6:
            raise ValueError("genus-0 vertex valence %d unsupported" % deg)
        if g.genera[v] == 1 and not 1 <= deg <= 3:
            raise ValueError("genus-1 vertex valence %d unsupported" % deg)

    total = []
    for assign in product(table.alg.indices(), repeat=g.n_edges):
        factors = []
        for v in range(g.n_vertices):
            edge_idx = tuple(sorted(assign[eid] for eid in incident[v]))
            tv = _leg_sum(table, g.genera[v], edge_idx, g.legs[v])
            if tv is ZERO:
                break
            factors.append(tv)
        else:
            for eid in range(g.n_edges):
                factors.append(table.edge_weight(assign[eid]))
            total.append(mul(*factors))
    return add(*total)


def _leg_sum(table, genus, t, m):
    """The genus-``genus`` vertex function at sorted edge indices t,
    summed over every ordered index tuple of m legs.

    Since sum_j Gamma^s_kj = 0, summing the correlator recursion over
    one leg index turns its derivative terms into the total
    x-derivative and cancels the Christoffel terms between legs.  This
    leaves

        L(t, m) = d_x L(t, m-1) - sum_pos sum_s A^s_{t[pos]} L(t[pos->s], m-1)

    with A^s_k from :func:`_connection` and L(t, 0) the correlator at t.
    A tuple shorter than the recursion's base (3 for C, 1 for D) first
    takes one leg as a plain index sum.  Results are memoized in
    ``table.leg_sums`` under (genus, t, m)."""
    sums = table.leg_sums
    key = (genus, t, m)
    out = sums.get(key)
    if out is not None:
        return out
    alg = table.alg
    if m == 0:
        out = table.correlator_C(t) if genus == 0 else table.correlator_D(t)
    elif len(t) < (3 if genus == 0 else 1):
        out = add(*[_leg_sum(table, genus, tuple(sorted(t + (l,))), m - 1)
                    for l in alg.indices()])
    else:
        conn = table.connections
        if not conn:
            conn.update(((s, k), _connection(alg, s, k))
                        for s in alg.indices() for k in alg.indices())
        terms = [alg.total_x(_leg_sum(table, genus, t, m - 1))]
        for pos, k in enumerate(t):
            for s in alg.indices():
                a = conn[s, k]
                if a is ZERO:
                    continue
                moved = tuple(sorted(t[:pos] + (s,) + t[pos + 1:]))
                rest = _leg_sum(table, genus, moved, m - 1)
                if rest is not ZERO:
                    terms.append(neg(mul(a, rest)))
        out = add(*terms)
    sums[key] = out
    return out


def graph_x_derivative(g: DualGraph):
    """The x-derivative as a signed list of graphs: a leg added at each
    vertex (+), and each edge subdivided by a two-leg genus-0 vertex (-)."""
    out = []
    for v in range(g.n_vertices):
        legs = list(g.legs)
        legs[v] += 1
        out.append((+1, DualGraph.make(g.genera, g.edges, legs)))
    for eid, (a, b) in enumerate(g.edges):
        w = g.n_vertices
        edges = list(g.edges[:eid] + g.edges[eid + 1:])
        edges += [(a, w), (b, w)]
        out.append((-1, DualGraph.make(g.genera + (0,), edges, g.legs + (2,))))
    return out


# ---------------------------------------------------------------------------
# enumeration


@cache
def enumerate_admissible():
    """All canonical genus-two graphs satisfying properties 1-4, up to
    the subdivision equivalence, as a frozenset computed once per
    process.  Genus labels are restricted to {0, 1} since only those
    vertices have contraction rules."""
    found = set()
    for b1 in (0, 1, 2):
        n_g1 = 2 - b1
        # the valence sum equals 3(N_v + B_1 - 1); allowing at most one
        # minimal-valence vertex forces N_v <= B_1 + 2
        for nv in range(1, b1 + 3):
            if n_g1 > nv:
                continue
            ne = nv + b1 - 1
            nl = ne
            if ne < 0:
                continue
            pairs = [(a, b) for a in range(nv) for b in range(a, nv)]
            for genus_pos in combinations_with_replacement(range(nv), n_g1):
                if len(set(genus_pos)) != len(genus_pos):
                    continue
                genera = [0] * nv
                for v in genus_pos:
                    genera[v] = 1
                for edge_sel in combinations_with_replacement(pairs, ne):
                    for leg_sel in combinations_with_replacement(range(nv), nl):
                        legs = [0] * nv
                        for v in leg_sel:
                            legs[v] += 1
                        g = DualGraph.make(genera, edge_sel, legs)
                        if not _admissible(g, b1):
                            continue
                        found.add(canonicalize(g))
    # subdivision may map two raw graphs to one class; keep fixpoints only
    return frozenset(g for g in found if _admissible(g, g.first_betti()))


def _admissible(g: DualGraph, b1):
    if g.first_betti() != b1:
        return False
    if sum(g.genera) + b1 != 2:
        return False
    if not g.is_connected() or not g.is_stable():
        return False
    if g.n_edges != g.n_legs or g.n_edges != g.n_vertices + b1 - 1:
        return False
    if not g.is_1pi():
        return False
    minimal = [v for v in range(g.n_vertices)
               if g.valence(v) == 3 - 2 * g.genera[v]]
    if len(minimal) > 1:
        return False
    if sum(g.genera) == 1 and minimal:
        return False
    return True


# ---------------------------------------------------------------------------
# the named catalog
#
# Q1, Q2, Q15, Q16 are pinned by their published contraction formulas.
# The remaining interior names are fixed by the seven x-derivative
# identities (P and O graphs) plus the coefficient solve; the pairs
# (Q11, Q12) and (Q13, Q14) are not distinguished by those identities
# and carry the assignment that reproduces the published constants.

_CATALOG = {name: DualGraph.make(*raw) for name, raw in {
    # one genus-0 vertex, two self-loops, two legs
    "Q1": ([0], [(0, 0), (0, 0)], [2]),
    # triple edge, legs 1 and 2
    "Q2": ([0, 0], [(0, 1)] * 3, [1, 2]),
    # self-loop plus double edge; loop vertex one leg, other two legs
    "Q3": ([0, 0], [(0, 0), (0, 1), (0, 1)], [1, 2]),
    # triple edge with one edge subdivided (vertex 2); outer legs 1 and 1
    "Q4": ([0, 0, 0], [(0, 1), (0, 1), (0, 2), (1, 2)], [1, 1, 2]),
    # self-loop plus double edge; legs 0 and 3
    "Q5": ([0, 0], [(0, 0), (0, 1), (0, 1)], [0, 3]),
    # triple edge, legs 3 and 0
    "Q6": ([0, 0], [(0, 1)] * 3, [3, 0]),
    # two double edges sharing a middle vertex of valence 4
    "Q7": ([0, 0, 0], [(0, 1), (0, 1), (0, 2), (0, 2)], [0, 2, 2]),
    # triple edge with one edge subdivided; legs 1 (subdivider 3)
    "Q8": ([0, 0, 0], [(0, 1), (0, 1), (0, 2), (1, 2)], [1, 0, 3]),
    # self-loop vertex joined to two-leg vertices in a triangle
    "Q9": ([0, 0, 0], [(0, 0), (0, 1), (0, 2), (1, 2)], [0, 2, 2]),
    # triple edge with one edge subdivided; outer legs 2 and 0
    "Q10": ([0, 0, 0], [(0, 1), (0, 1), (0, 2), (1, 2)], [2, 0, 2]),
    # double edge plus a two-step path of subdividers
    "Q11": ([0, 0, 0, 0], [(0, 1), (0, 1), (0, 2), (2, 3), (3, 1)], [1, 0, 2, 2]),
    # double edge subdivided twice, one subdivider on each parallel edge
    "Q12": ([0, 0, 0, 0], [(0, 2), (1, 2), (0, 3), (1, 3), (0, 1)], [1, 0, 2, 2]),
    # genus-1 vertex doubly joined to a two-leg genus-0 vertex
    "Q13": ([0, 1], [(0, 1), (0, 1)], [2, 0]),
    # genus-1 vertex with a self-loop and one leg
    "Q14": ([1], [(0, 0)], [1]),
    # genus-0 vertex with self-loop and leg, edge to one-leg genus-1 vertex
    "Q15": ([0, 1], [(0, 0), (0, 1)], [1, 1]),
    # two genus-1 vertices joined by an edge, one leg
    "Q16": ([1, 1], [(0, 1)], [1, 0]),
    # O1 plus one leg
    "P1": ([0], [(0, 0), (0, 0)], [1]),
    # O1 with one loop opened through a two-leg vertex
    "P2": ([0, 0], [(0, 0), (0, 1), (0, 1)], [0, 2]),
    "P3": ([0, 0, 0], [(0, 1), (0, 1), (0, 2), (1, 2)], [1, 0, 2]),
    "P4": ([0, 0], [(0, 1)] * 3, [2, 0]),
    "P5": ([0, 0], [(0, 1)] * 3, [1, 1]),
    # genus-0 vertex with two self-loops, no legs
    "O1": ([0], [(0, 0), (0, 0)], [0]),
    # triple edge, one leg
    "O2": ([0, 0], [(0, 1)] * 3, [1, 0]),
    # W graphs of the seven-term two-dimensional formula; identified
    # operationally by coefficient solving on that family
    "W1": ([1], [(0, 0)], [1]),
    "W2": ([0, 1], [(0, 1), (0, 1)], [2, 0]),
    "W3": ([0, 1], [(0, 0), (0, 1)], [1, 1]),
}.items()}


def builtin(name):
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError("unknown graph %r" % name) from None


def catalog_names():
    return list(_CATALOG)
