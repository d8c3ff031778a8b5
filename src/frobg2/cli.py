"""Command-line front end.

Each verb runs one verification suite and streams its result as JSON
lines: one object per trial, then a summary object.  Exit status 0
means every trial passed, 1 means at least one failed, 2 is a usage
error (click's default), 3 signals that a numeric computation did not
converge or that no usable point came out of ``MAX_RESAMPLE`` draws (a
family point, a residue-suite draw or a generic exact point), and 4 is
any other error, with its traceback on stderr.

``_verb`` is the one runner of every verb: it adds ``--output``, which
it checks before any suite runs, runs the verb with the DAG store on
(``genus2.stored_builds``), writes what the verb returns (a report, or
a writer of the verb's own text) and maps what it raises to an exit
code.  The output file is opened only once the verb has its output.

Reports are deterministic: the same command with the same seed writes
byte-identical output.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from functools import partial

import click

from .algebra import Algebra
from .correlators import CorrelatorTable
from .exact import NonConvergenceError
from .expr import dump as expr_dump
from .families import (
    FAMILIES,
    DegenerateSample,
    closed_form_o_difference,
    g2_vanishing_check,
    gfunction_check,
    o_difference_check,
    relation_family_check,
    residue_identity_suite,
)
from .genus2 import (
    CONSTANTS,
    check_decomposition,
    f2_reference,
    g2_function,
    relation_expression,
    solve_coefficients,
    stored_builds,
)
from .graphs import builtin, canonicalize, catalog_names, enumerate_admissible, graph_function
from .report import DEFAULT_PRECISION, DEFAULT_SEED, VerificationReport, relative_tolerance

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NONCONVERGENT = 3
EXIT_ERROR = 4

_BY_FLAG = {family.flag: family for family in FAMILIES.values()}


def _family_spec(flag, params, needs=None):
    """The FamilySpec the --family options name.  ``needs`` is a
    (record attribute, description) pair the family must provide."""
    family = _BY_FLAG[flag]
    if needs and not getattr(family, needs[0]):
        raise click.UsageError("the %s family has no %s" % (flag, needs[1]))
    missing = ["--" + name for name in family.params if params[name] is None]
    if missing:
        raise click.UsageError("%s required for the %s family"
                               % (" and ".join(missing), flag))
    stray = ["--" + name for name, value in params.items()
             if value is not None and name not in family.params]
    if stray:
        raise click.UsageError("the %s family takes no %s"
                               % (flag, " or ".join(stray)))
    try:
        return family.make(*[params[name] for name in family.params])
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(str(exc))


@contextmanager
def _writer(output):
    """A text writer to the file ``output``, or to stdout without one."""
    if output:
        with open(output, "w") as fh:
            yield fh.write
    else:
        yield partial(click.echo, nl=False)


def _emit(report, output):
    lines = []
    for idx, trial in enumerate(report.trials):
        rec = {"trial": idx}
        rec.update(trial.to_dict())
        lines.append(json.dumps(rec, sort_keys=True))
    summary = report.to_dict()
    summary.pop("trials")
    summary["trials"] = len(report.trials)
    summary["tolerance"] = relative_tolerance(report.precision)
    lines.append(json.dumps(summary, sort_keys=True))
    return _text("\n".join(lines) + "\n", report.verdict == "pass")(output)


def _text(text, ok=True):
    """A writer of ``text`` that exits 0, or 1 when not ``ok``."""
    def write_text(output):
        with _writer(output) as write:
            write(text)
        return EXIT_PASS if ok else EXIT_FAIL
    return write_text


def _output_dir(ctx, param, value):
    # click.Path checks only a path that exists
    parent = value and os.path.dirname(os.path.abspath(value))
    if parent and not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise click.BadParameter("%r is not a writable directory." % parent)
    return value


def _verb(name, *options, help=None):
    """Register the decorated function as the verb ``name``, with
    ``options`` in --help in the order given, then --output.  The
    function returns a report, or a writer that takes the --output
    value, writes the verb's text and returns the exit code."""
    def register(fn):
        def command(output, **kwargs):
            try:
                with stored_builds():
                    out = fn(**kwargs)
                if isinstance(out, VerificationReport):
                    code = _emit(out, output)
                else:
                    code = out(output)
            except click.ClickException:
                raise
            except (NonConvergenceError, DegenerateSample) as exc:
                click.echo("non-convergent: %s" % exc, err=True)
                code = EXIT_NONCONVERGENT
            except Exception:
                sys.excepthook(*sys.exc_info())  # the traceback, to stderr
                code = EXIT_ERROR
            sys.exit(code)

        # the last decorator applied is listed first in --help
        for deco in reversed(options + (output_option,)):
            command = deco(command)
        main.command(name, help=help or fn.__doc__)(command)
        return fn
    return register


family_options = (
    click.option("--family", type=click.Choice(list(_BY_FLAG)), required=True,
                 help="Family kind."),
    click.option("--n", type=click.IntRange(min=1), default=None,
                 help="Rank for A/D families."),
    click.option("--p", type=int, default=None, help="First orbifold degree."),
    click.option("--q", type=int, default=None, help="Second orbifold degree."),
    click.option("--r", type=int, default=None, help="D-orbifold parameter."),
    click.option("--mu1", type=str, default=None,
                 help="Rational parameter of the 2D family."),
)
seed_option = click.option("--seed", type=int, default=DEFAULT_SEED,
                           show_default=True, help="Deterministic sampling seed.")
precision_option = click.option("--precision", type=click.IntRange(min=2),
                                default=DEFAULT_PRECISION, show_default=True,
                                help="Working precision in bits for numeric families.")
output_option = click.option("--output", type=click.Path(dir_okay=False, writable=True),
                             default=None, callback=_output_dir, metavar="PATH",
                             help="Write the report here instead of stdout.")


@click.group()
def main():
    """Verification workbench for the genus-two free-energy identities."""


@_verb("verify-decomposition",
       click.option("--n", type=click.IntRange(min=1), required=True,
                    help="Number of canonical coordinates."),
       click.option("--trials", type=click.IntRange(min=1), default=20, show_default=True),
       seed_option)
def cmd_verify_decomposition(n, trials, seed):
    """Check the sixteen-graph decomposition at random exact points."""
    return check_decomposition(n, trials=trials, seed=seed)


@_verb("solve-coefficients",
       click.option("--n", type=click.IntRange(min=2), default=2, show_default=True),
       click.option("--samples", type=click.IntRange(min=32), default=32, show_default=True),
       seed_option)
def cmd_solve_coefficients(n, samples, seed):
    """Re-derive the sixteen constants and compare with the catalog."""
    solved = solve_coefficients(n, samples=samples, seed=seed)
    report = VerificationReport(command="solve-coefficients", n=n, seed=seed)
    for name, c in CONSTANTS.items():
        report.add_trial(name, str(solved[name]), solved[name] == c)
    return report


def _family_verb(name, suite, summary, needs=None):
    """Register a verb that runs ``suite`` on --points points of a family."""

    @_verb(name, *family_options,
           click.option("--points", type=click.IntRange(min=1), default=3, show_default=True),
           seed_option, precision_option, help=summary)
    def command(family, points, seed, precision, **params):
        spec = _family_spec(family, params, needs)
        return suite(spec, points=points, seed=seed, precision=precision)


_family_verb("verify-g2", g2_vanishing_check,
             "Check that the genus-two correction vanishes on a family.")
_family_verb("verify-relation", relation_family_check,
             "Check the sixteen-term linear relation on a family.")
_family_verb("verify-gfunction", gfunction_check,
             "Check the genus-one G-function gradients on a family.",
             needs=("gradient_closed_form", "G-function closed form"))


@_verb("compute-odiff", *family_options,
       click.option("--points", type=click.IntRange(min=0), default=0, show_default=True,
                    help="Also verify the value on this many sampled points."),
       seed_option, precision_option)
def cmd_compute_odiff(family, points, seed, precision, **params):
    """Print the family's closed-form O1 - O2 value."""
    spec = _family_spec(family, params)
    if points:
        return o_difference_check(spec, points=points, seed=seed, precision=precision)
    record = {"command": "compute-odiff", "family": spec.label,
              "o_difference": str(closed_form_o_difference(spec))}
    return _text(json.dumps(record, sort_keys=True) + "\n")


@_verb("verify-residues", *family_options,
       click.option("--draws", type=click.IntRange(min=1), default=5, show_default=True),
       seed_option)
def cmd_verify_residues(family, draws, seed, **params):
    """Run the residue-identity suite for a polynomial family."""
    spec = _family_spec(family, params, needs=("residue_checks", "residue suite"))
    return residue_identity_suite(spec, seed=seed, draws=draws)


@_verb("enumerate-graphs",
       click.option("--emit", type=click.Choice(["json", "dot"]), default="json",
                    show_default=True))
def cmd_enumerate_graphs(emit):
    """List the sixteen canonical graphs and check the enumeration."""
    classes = enumerate_admissible()
    named = {name: canonicalize(builtin(name))
             for name in catalog_names() if name.startswith("Q")}
    lines = []
    for name, g in named.items():
        if emit == "dot":
            lines.append(g.to_dot(name=name))
        else:
            rec = json.loads(g.to_json())
            rec["name"] = name
            lines.append(json.dumps(rec, sort_keys=True))
    ok = set(named.values()) == classes and len(classes) == 16
    lines.append(json.dumps({"command": "enumerate-graphs", "classes": len(classes),
                             "catalog_matches": ok, "verdict": "pass" if ok else "fail"},
                            sort_keys=True))
    return _text("\n".join(lines) + "\n", ok)


_DUMPED = {"f2": f2_reference, "g2": g2_function, "relation": relation_expression}


@_verb("dump-expr",
       click.option("--what", type=click.Choice([*_DUMPED, "graph"]), required=True),
       click.option("--name", type=str, default=None,
                    help="Catalog name when dumping a graph contraction."),
       click.option("--n", type=click.IntRange(min=1), default=2, show_default=True))
def cmd_dump_expr(what, name, n):
    """Write an expression as deterministic S-expression text."""
    if what != "graph":
        if name is not None:
            raise click.UsageError("--name is only taken with --what graph")
        expr = _DUMPED[what](Algebra(n))
    elif name is None:
        raise click.UsageError("--name is required with --what graph")
    else:
        try:
            graph = builtin(name)
        except KeyError:
            raise click.UsageError("unknown graph %r" % name)
        expr = graph_function(graph, CorrelatorTable(Algebra(n)))

    def write_dump(output):
        with _writer(output) as write:
            expr_dump(expr, write)
            write("\n")
        return EXIT_PASS
    return write_dump


if __name__ == "__main__":
    main()
