"""Hash-consed differential-polynomial expressions.

Nodes form an immutable DAG over four generator kinds: coordinates
``u_i``, their x-jets ``u_i^{(p)}``, metric square roots ``h_i`` and
off-diagonal rotation coefficients ``g_{ij}`` (stored with i < j, the
matrix is symmetric).  Construction canonicalizes just enough to keep
identical subterms shared: sums are flattened with like terms combined,
products are flattened with powers collected and a single rational
coefficient folded out, integer powers distribute over products.  No
other rewriting happens; identities are checked by evaluation, not by
normal forms.

Every node carries a structural hash (``shash``) built bottom-up from
integers only, and sums and products order their operands by
``(shash, sid)``.  The hash is not injective: CPython hashes -1 and -2
alike, so ``const(-1)`` and ``const(-2)`` share an ``shash``, as do
``b^-1`` and ``b^-2`` and every node built over such a pair.  Siblings
whose hashes tie keep the order in which they were first created
(``sid``), so child order and the S-expression dump are stable across
processes only as long as those siblings are created in the same
order.  ``save`` writes a kept DAG in ``sid`` order, so that ``load``
creates its nodes in the order the build did.

A DAG is evaluated by one loop, ``evaluate``, over a kernel: an object
with ``name``, ``fresh``, ``const``, ``gen``, ``power(node, cache)``,
``fold(node, cache)``, ``scalar`` and ``passes``, which carries its own
arithmetic context.  The exact kernel, ``EXACT``, lives here.  The
numeric kernel lives in ``frobg2.numeric``, which imports this module;
this module imports neither it nor mpmath, so exact evaluation never
loads the floating-point library.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import attrgetter
from weakref import WeakValueDictionary

from .exact import _is_zero
from .radicals import RadicalElem

OP_CONST = 0
OP_GEN = 1
OP_ADD = 2
OP_MUL = 3
OP_POW = 4

GK_U = 0
GK_JET = 1
GK_H = 2
GK_GAMMA = 3

_GEN_NAMES = {GK_U: "u", GK_JET: "x", GK_H: "h", GK_GAMMA: "g"}

_MASK = (1 << 61) - 1


class Expr:
    __slots__ = ("op", "args", "shash", "sid", "__weakref__")

    def __repr__(self):
        return dump(self) if node_count(self) < 40 else "<Expr %d nodes>" % node_count(self)

    # interned: identity equality and hashing are inherited from object


_intern: "WeakValueDictionary[tuple, Expr]" = WeakValueDictionary()
_next_sid = [0]


def _mk(op, args, hcomps):
    key = (op,) + args
    node = _intern.get(key)
    if node is None:
        node = Expr()
        node.op = op
        node.args = args
        node.shash = hash((op,) + hcomps) & _MASK
        node.sid = _next_sid[0]
        _next_sid[0] += 1
        _intern[key] = node
    return node


# sort key of sum and product children: (shash, sid)
_skey = attrgetter("shash", "sid")
_sid = attrgetter("sid")


def const(q):
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return _mk(OP_CONST, (q,), (q.numerator, q.denominator))


ZERO = const(0)
ONE = const(1)
# keep the two ubiquitous constants alive for the life of the process
_pinned = (ZERO, ONE)


def gen(kind, i, p=0):
    return _mk(OP_GEN, (kind, i, p), (kind, i, p))


def u(i):
    return gen(GK_U, i)


def jet(i, p):
    if p < 1:
        raise ValueError("jet order must be >= 1")
    return gen(GK_JET, i, p)


def h(i):
    return gen(GK_H, i)


def gamma(i, j):
    if i == j:
        return ZERO
    if i > j:
        i, j = j, i
    return gen(GK_GAMMA, i, j)


def _split(term):
    """term -> (rational coefficient, coefficient-free base)."""
    if term.op == OP_CONST:
        return term.args[0], ONE
    if term.op == OP_MUL and term.args[0].op == OP_CONST:
        rest = term.args[1:]
        if len(rest) == 1:
            return term.args[0].args[0], rest[0]
        return term.args[0].args[0], _mk(
            OP_MUL, rest, tuple(c.shash for c in rest)
        )
    return 1, term


def add(*terms):
    # base -> [coefficient, the addend as given, or None once a like
    # term has combined with it]; an addend kept as given is the node
    # that mul(const(c), base) would intern anyway
    acc = {}
    for t in terms:
        if t.op == OP_ADD:
            items = t.args
        else:
            items = (t,)
        for it in items:
            c, base = _split(it)
            if not c:
                continue
            prev = acc.get(base)
            if prev is None:
                acc[base] = [c, it]
                continue
            s = prev[0] + c
            if s:
                prev[0] = s
                prev[1] = None
            else:
                del acc[base]
    out = []
    for base, (c, given) in acc.items():
        if given is not None:
            out.append(given)
        elif base is ONE:
            out.append(const(c))
        elif c == 1:
            out.append(base)
        else:
            out.append(mul(const(c), base))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_skey)
    return _mk(OP_ADD, tuple(out), tuple(e.shash for e in out))


def mul(*factors):
    # like add, a constant or power that nothing combined with is kept
    # as given: cnode is the one constant factor, given[base] the one
    # factor that brought base (None once a second one has)
    coeff = 1
    cnode = None
    powers = {}
    given = {}
    stack = list(factors)
    while stack:
        f = stack.pop()
        op = f.op
        if op == OP_CONST:
            c = f.args[0]
            if not c:
                return ZERO
            # coeff stays the int 1 until the first constant factor
            if type(coeff) is int:
                coeff = c
                cnode = f
            else:
                coeff = coeff * c
                cnode = None
            continue
        if op == OP_MUL:
            stack.extend(f.args)
            continue
        if op == OP_POW:
            base, k = f.args
        else:
            base, k = f, 1
        prev = powers.get(base)
        if prev is None:
            powers[base] = k
            given[base] = f
        else:
            powers[base] = prev + k
            given[base] = None
    out = []
    for base, k in powers.items():
        if k == 0:
            continue
        g = given[base]
        if g is not None:
            out.append(g)
        elif k == 1:
            out.append(base)
        else:
            out.append(_mk(OP_POW, (base, k), (base.shash, k)))
    if not out:
        return const(coeff) if cnode is None else cnode
    out.sort(key=_skey)
    if coeff != 1:
        out.insert(0, const(coeff) if cnode is None else cnode)
    if len(out) == 1:
        return out[0]
    return _mk(OP_MUL, tuple(out), tuple(e.shash for e in out))


def pow_(b, k):
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return b
    if b.op == OP_CONST:
        return const(b.args[0] ** k)
    if b.op == OP_POW:
        return pow_(b.args[0], b.args[1] * k)
    if b.op == OP_MUL:
        return mul(*[pow_(f, k) for f in b.args])
    return _mk(OP_POW, (b, k), (b.shash, k))


def neg(e):
    return mul(const(-1), e)


def sub(a, b):
    return add(a, neg(b))


def div(a, b):
    return mul(a, pow_(b, -1))


# ---------------------------------------------------------------------------
# generic derivation


def derive(e, leaf_rule, cache):
    """Apply a derivation to e.  leaf_rule maps a GEN node to its image;
    cache is a dict shared across calls for the same derivation."""
    hit = cache.get(e)
    if hit is not None:
        return hit
    op = e.op
    if op == OP_CONST:
        out = ZERO
    elif op == OP_GEN:
        out = leaf_rule(e)
    elif op == OP_ADD:
        out = add(*[derive(t, leaf_rule, cache) for t in e.args])
    elif op == OP_MUL:
        terms = []
        args = e.args
        for i, f in enumerate(args):
            df = derive(f, leaf_rule, cache)
            if df is ZERO:
                continue
            terms.append(mul(df, *args[:i], *args[i + 1:]))
        out = add(*terms)
    else:  # OP_POW
        b, k = e.args
        db = derive(b, leaf_rule, cache)
        out = ZERO if db is ZERO else mul(const(k), pow_(b, k - 1), db)
    cache[e] = out
    return out


# ---------------------------------------------------------------------------
# traversal, evaluation: one loop over a kernel (see the module docstring)


def _postorder(e):
    seen = set()
    order = []
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        if node.op in (OP_ADD, OP_MUL):
            for c in node.args:
                stack.append((c, False))
        elif node.op == OP_POW:
            stack.append((node.args[0], False))
    return order


# root -> (its order, its release plan), for the DAGs kept for the life
# of the process
_schedules = {}
# a DAG was kept since the heap was last collected before forking
# (``algebra.forked_map`` reads and clears it)
collect_before_fork = False


def keep_schedule(e, nodes=None):
    """Evaluate e in increasing ``sid`` order from now on: the order the
    nodes were created in, in which every node comes after its operands
    and the root comes last.  With the order goes its release plan: at
    each position, the operands whose last use in the order is there,
    which ``evaluate`` drops from its cache once that position is done.
    For a DAG that lives as long as the process: the order and plan are
    kept as long, and the next fork collects the heap first.  The nodes
    are found by a walk of e, or given as the list ``nodes`` (``load``
    gives its rows), which is then sorted in place."""
    global collect_before_fork
    order = _postorder(e) if nodes is None else nodes
    order.sort(key=_sid)
    _schedules[e] = (order, _release_plan(order))
    collect_before_fork = True


def _release_plan(order):
    """For each position of ``order``, the tuple of operands used there
    and at no later position: one pass from the root down, in which an
    operand's first sighting is its last use."""
    seen = set()
    covered = seen.issuperset
    plan = []
    for node in reversed(order):
        op = node.op
        if op == OP_ADD or op == OP_MUL:
            args = node.args
        elif op == OP_POW:
            args = node.args[:1]
        else:
            args = ()
        if covered(args):  # most positions: nothing is used last there
            plan.append(())
            continue
        dead = []
        for c in args:
            if c not in seen:
                seen.add(c)
                dead.append(c)
        plan.append(tuple(dead))
    plan.reverse()
    return plan


def _schedule(e):
    """e's evaluation order and release plan: the kept ones, or a walk
    of e that releases nothing."""
    kept = _schedules.get(e)
    return (_postorder(e), repeat(())) if kept is None else kept


def node_count(e):
    return len(_postorder(e))


def generators(e):
    """All GEN nodes reachable from e."""
    return [n for n in _postorder(e) if n.op == OP_GEN]


# ---------------------------------------------------------------------------
# exact kernel
#
# A Fraction is held as (None, 0, num, den) and a RadicalElem of at most
# one term as (field, mask, num, den), zero as (field, 0, 0, 1), with
# gcd(num, den) == 1.  A negative power swaps num and den, so den may be
# negative; Fraction() restores the sign on the way out.  A node's value
# is formed on these integers and reduced by one gcd when the node is
# finished.  Any other value (a RadicalElem of several terms, an int, an
# mpmath number) stays the scalar it is, and a node that meets one, a
# sum of two masks or a power of an irrational monomial is computed by
# the scalars' own operators, left to right, exactly as the plain fold
# does; so every value, type and coefficient order is the fold's.


def _to_kernel(v):
    t = type(v)
    if t is Fraction:
        return (None, 0, v.numerator, v.denominator)
    if t is RadicalElem:
        coeffs = v.coeffs
        if not coeffs:
            return (v.field, 0, 0, 1)
        if len(coeffs) == 1:
            ((m, c),) = coeffs.items()
            return (v.field, m, c.numerator, c.denominator)
    return v


def _from_kernel(v):
    if type(v) is not tuple:
        return v
    field, m, n, d = v
    if field is None:
        return Fraction(n, d)
    return RadicalElem(field, {m: Fraction(n, d)} if n else {})


def _by_operators(node, cache):
    """The node's value by its operands' own scalar operators."""
    if node.op == OP_POW:
        b, k = node.args
        return _to_kernel(_from_kernel(cache[b]) ** k)
    it = iter(node.args)
    v = _from_kernel(cache[next(it)])
    if node.op == OP_ADD:
        for c in it:
            v = v + _from_kernel(cache[c])
    else:
        for c in it:
            v = v * _from_kernel(cache[c])
    return _to_kernel(v)


class ExactKernel:
    """Fraction and RadicalElem scalars on integer pairs (see above); a
    value passes when it is exactly zero.  Stateless: contexts share ``EXACT``."""

    __slots__ = ()
    name = "exact"
    const = gen = staticmethod(_to_kernel)
    scalar = staticmethod(_from_kernel)
    passes = staticmethod(_is_zero)

    def fresh(self):
        return self

    @staticmethod
    def power(node, cache):
        b, k = node.args
        v = cache[b]
        # a zero base to a negative power raises in the operators
        if type(v) is tuple and not v[1] and (v[2] or k >= 0):
            f, _, n, d = v
            if k < 0:
                n, d, k = d, n, -k
            return (f, 0, n ** k, d ** k)
        return _by_operators(node, cache)

    @staticmethod
    def fold(node, cache):
        is_add = node.op == OP_ADD
        it = iter(node.args)
        v = cache[next(it)]
        if type(v) is tuple:
            f, m, n, d = v
            for c in it:
                w = cache[c]
                if type(w) is not tuple:
                    break
                g, m2, n2, d2 = w
                if g is not f:
                    if f is None:
                        f = g
                    elif g is not None:
                        break  # two fields: the operators raise
                if is_add:
                    if m2 != m:
                        if not n2:
                            continue
                        if n:
                            break  # two masks: the coefficient order is the operators'
                        m = m2
                    if d2 == d:
                        n += n2
                    else:
                        n = n * d2 + n2 * d
                        d *= d2
                else:
                    if m & m2:
                        q = f.shared(m & m2)
                        n *= q.numerator
                        d *= q.denominator
                    n *= n2
                    d *= d2
                    m ^= m2
            else:
                if not n:
                    return (f, 0, 0, 1)
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
                return (f, m, n, d)
        return _by_operators(node, cache)


EXACT = ExactKernel()


def evaluate(e, gen_value, cache=None, kernel=EXACT):
    """The value of e at a point, whatever the kernel.  ``gen_value``
    maps (kind, i, p) to a scalar, ``cache`` is a per-point memo of
    kernel values.  A node already in ``cache`` is not computed again,
    and a root already there is returned at once.

    A DAG given to ``keep_schedule`` is evaluated in its kept order, and
    each value is dropped from ``cache`` at its last use in that order,
    so the call leaves only the root of all the DAG's nodes in the
    cache, and holds a tenth or so of them at any one time.  Any other
    DAG is walked afresh and leaves every node's value in the cache,
    for the next expression evaluated at the same point to share."""
    if cache is None:
        cache = {}
    elif e in cache:
        return kernel.scalar(cache[e])
    const, gen, power, fold = kernel.const, kernel.gen, kernel.power, kernel.fold
    order, plan = _schedule(e)
    for node, dead in zip(order, plan):
        if node not in cache:
            op = node.op
            if op == OP_CONST:
                cache[node] = const(node.args[0])
            elif op == OP_GEN:
                cache[node] = gen(gen_value(node.args))
            elif op == OP_POW:
                cache[node] = power(node, cache)
            else:
                cache[node] = fold(node, cache)
        for c in dead:
            del cache[c]
    return kernel.scalar(cache[e])


# ---------------------------------------------------------------------------
# S-expression dump


_CHUNK = 4096  # pieces of dump text joined into one write


def dump(e, write=None):
    """Deterministic S-expression text for the DAG, written out as a
    tree.  With ``write`` the text is passed to it in chunks, in order,
    and nothing is returned; without, the text is returned."""
    if write is None:
        parts = []
        dump(e, parts.append)
        return "".join(parts)
    leaves = {}
    buf = []
    stack = [e]
    while stack:
        item = stack.pop()
        if type(item) is str:
            buf.append(item)
        else:
            op = item.op
            if op == OP_ADD or op == OP_MUL:
                buf.append("(+ " if op == OP_ADD else "(* ")
                stack.append(")")
                args = item.args
                for k in range(len(args) - 1, 0, -1):
                    stack.append(args[k])
                    stack.append(" ")
                stack.append(args[0])
            elif op == OP_POW:
                buf.append("(^ ")
                stack.append(" %d)" % item.args[1])
                stack.append(item.args[0])
            else:
                text = leaves.get(item)
                if text is None:
                    text = leaves[item] = _leaf_text(item)
                buf.append(text)
        if len(buf) >= _CHUNK:
            write("".join(buf))
            buf.clear()
    if buf:
        write("".join(buf))


def _leaf_text(e):
    if e.op == OP_CONST:
        return str(e.args[0])
    kind, i, p = e.args
    name = _GEN_NAMES[kind]
    if kind in (GK_JET, GK_GAMMA):
        return "%s%d.%d" % (name, i, p)
    return "%s%d" % (name, i)


# ---------------------------------------------------------------------------
# stored DAGs: plain JSON, nodes in sid order, operands by row index


def save(e, write):
    """Write the DAG ``e``, which must be kept (``keep_schedule``), as one
    JSON object passed to ``write`` in pieces: the root's ``shash``, the
    node count, then one row per node in the kept order, which is
    increasing ``sid``, so the root is the last row.  A row is
    ``[op, numerator, denominator]``, ``[op, kind, i, p]``,
    ``[op, base row, exponent]`` or ``[op, operand rows...]``.  The kept
    order puts every operand before its user, so each node is numbered
    as its row is written, in a ``{node: row text}`` map that lives only
    for the call."""
    order = _schedules[e][0]
    write('{"root": %d, "nodes": %d, "rows": [\n' % (e.shash, len(order)))
    rows = {}
    sep = ""
    for node in order:
        op, args = node.op, node.args
        if op == OP_CONST:
            q = args[0]
            row = "%d,%d,%d" % (op, q.numerator, q.denominator)
        elif op == OP_GEN:
            row = "%d,%d,%d,%d" % ((op,) + args)
        elif op == OP_POW:
            row = "%d,%s,%d" % (op, rows[args[0]], args[1])
        else:
            row = "%d,%s" % (op, ",".join([rows[c] for c in args]))
        rows[node] = str(len(rows))
        write("%s[%s]" % (sep, row))
        sep = ",\n"
    write("\n]}\n")


def load(text):
    """The root of the DAG that ``save`` wrote as ``text``, its nodes
    interned in row order.  Raises ValueError (or the LookupError,
    TypeError or ZeroDivisionError of malformed text) unless the text is
    such a DAG with the node count and root ``shash`` its header gives.
    Operands are taken in the order stored, not re-sorted by this
    process's sids.  The DAG comes kept (``keep_schedule``) with its
    rows, taken to be the nodes the root reaches as ``save`` writes
    them, in place of a walk.  They come after their operands, and the
    nodes new to this process get increasing sids in row order, so
    sorting them by ``sid`` is close to linear.  Each parsed row is
    dropped once its node exists, so the parsed rows and the nodes made
    from them do not all live at once."""
    data = json.loads(text)
    rows = data["rows"]
    if type(rows) is not list or not rows or len(rows) != data["nodes"]:
        raise ValueError("node count does not match")
    nodes = []
    for at, row in enumerate(rows):
        op = row[0]
        if op == OP_CONST:
            _, num, den = row
            node = const(Fraction(num, den))
        elif op == OP_GEN:
            _, kind, i, p = row
            if not type(kind) is type(i) is type(p) is int:
                raise ValueError("bad generator in row %r" % (row,))
            node = gen(kind, i, p)
        elif op == OP_POW:
            _, b, k = row
            if type(k) is not int or not 0 <= b < len(nodes):
                raise ValueError("bad power in row %r" % (row,))
            base = nodes[b]
            node = _mk(op, (base, k), (base.shash, k))
        elif op == OP_ADD or op == OP_MUL:
            refs = row[1:]
            if len(refs) < 2 or min(refs) < 0 or max(refs) >= len(nodes):
                raise ValueError("bad operand in row %r" % (row,))
            args = tuple([nodes[k] for k in refs])
            node = _mk(op, args, tuple([c.shash for c in args]))
        else:
            raise ValueError("bad operator in row %r" % (row,))
        nodes.append(node)
        rows[at] = None  # the parsed row is freed as soon as its node exists
    root = nodes[-1]
    if root.shash != data["root"]:
        raise ValueError("root hash does not match")
    # the kept list is made after the parsed text is freed, so that it
    # does not hold the heap above that text's freed space
    rows = data = None
    keep_schedule(root, nodes[:])
    return root
