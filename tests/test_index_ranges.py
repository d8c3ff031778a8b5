"""The dimension enters the builders only as their index range.

Every builder of a DAG is a sum over index tuples in ``[n]^k`` of a
summand whose form does not depend on n (ROADMAP item 2's universality
lemma).  That holds by inspection when a builder takes every index
range from ``Algebra.indices()`` and reads the dimension nowhere else:
empty sums need no ``n > 1`` guard, since ``add()`` is 0.  This test
reads the builders' source and fails on any read of an attribute named
``n`` in them.
"""

import ast
import inspect

import pytest

from frobg2 import algebra, correlators, genus2, graphs

# per module, the builders: a function, a ``Class.method``, a class (all
# its methods, ``__init__`` too) or a module-level table of builders
BUILDERS = {
    algebra: ["Algebra._dh_du", "Algebra._dgamma_du", "Algebra.partial_u",
              "Algebra.partial_jet", "Algebra.total_x", "Algebra.christoffel"],
    correlators: ["h_function", "CorrelatorTable"],
    graphs: ["graph_function", "_leg_sum", "_connection"],
    genus2: ["_DERIVED", "_TableBuilder", "g2_function", "o_difference_closed_form"],
}


def _definitions(module):
    """name -> AST of each top-level function, class, method (as
    ``Class.method``) and assignment of the module."""
    out = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out["%s.%s" % (node.name, item.name)] = item
    return out


def _bodies(module, name):
    node = _definitions(module)[name]
    if isinstance(node, ast.ClassDef):
        return [item for item in node.body if isinstance(item, ast.FunctionDef)]
    return [node]


def _dimension_reads(node):
    return [sub.lineno for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == "n"
            and isinstance(sub.ctx, ast.Load)]


@pytest.mark.parametrize("module,name", [(m, name) for m, names in BUILDERS.items()
                                         for name in names],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_no_dimension_read(module, name):
    lines = [line for body in _bodies(module, name) for line in _dimension_reads(body)]
    assert not lines, "%s.%s reads .n at line(s) %s" % (module.__name__, name, lines)


def test_indices_is_the_one_read():
    # the index range itself is where the dimension is read
    (indices,) = _bodies(algebra, "Algebra.indices")
    assert _dimension_reads(indices)
