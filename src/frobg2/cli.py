"""Command-line front end.

Each verb runs one verification suite and streams its result as JSON
lines: one object per trial, then a summary object.  Exit status 0
means every trial passed, 1 means at least one failed, 2 is a usage
error (click's default), and 3 signals that a numeric computation did
not converge or a family sampler could not produce a usable point.

Reports are deterministic: the same command with the same seed writes
byte-identical output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .algebra import Algebra
from .correlators import CorrelatorTable
from .exact import NonConvergenceError
from .expr import dump as expr_dump
from .families import (
    DegenerateSample,
    FamilySpec,
    closed_form_o_difference,
    g2_vanishing_check,
    gfunction_gradient_check,
    o_difference_check,
    relation_family_check,
    residue_identity_suite,
    sample,
)
from .genus2 import (
    CONSTANTS,
    check_decomposition,
    f2_reference,
    g2_function,
    o_difference_closed_form,
    relation_expression,
    solve_coefficients,
)
from .graphs import builtin, canonicalize, catalog_names, enumerate_admissible
from .report import DEFAULT_PRECISION, DEFAULT_SEED, VerificationReport, relative_tolerance

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NONCONVERGENT = 3

_FAMILY_KINDS = ("an", "dn", "e6", "e7", "e8", "apq", "dr", "2d")


def _family_spec(family, n, p, q, r, mu1):
    if family is None:
        raise click.UsageError("--family is required")
    family = family.lower()
    if family == "an":
        if n is None:
            raise click.UsageError("--n is required for the A family")
        return FamilySpec.An(n)
    if family == "dn":
        if n is None:
            raise click.UsageError("--n is required for the D family")
        return FamilySpec.Dn(n)
    if family == "e6":
        return FamilySpec.E6()
    if family == "e7":
        return FamilySpec.E7()
    if family == "e8":
        return FamilySpec.E8()
    if family == "apq":
        if p is None or q is None:
            raise click.UsageError("--p and --q are required for the A orbifold")
        return FamilySpec.ApqOrbifold(p, q)
    if family == "dr":
        if r is None:
            raise click.UsageError("--r is required for the D orbifold")
        return FamilySpec.DrOrbifold(r)
    if family == "2d":
        if mu1 is None:
            raise click.UsageError("--mu1 is required for the 2D family")
        try:
            value = Fraction(mu1)
        except (ValueError, ZeroDivisionError):
            raise click.UsageError("--mu1 must be a rational like 1/3")
        if value == 0:
            raise click.UsageError("--mu1 must be nonzero")
        return FamilySpec.TwoDim(value)
    raise click.UsageError("unknown family %r" % family)


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
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def _guarded(body):
    try:
        sys.exit(body())
    except (NonConvergenceError, DegenerateSample) as exc:
        click.echo("non-convergent: %s" % exc, err=True)
        sys.exit(EXIT_NONCONVERGENT)


def _family_options(fn):
    for deco in (
        click.option("--family", type=click.Choice(_FAMILY_KINDS), default=None,
                     help="Family kind."),
        click.option("--n", type=int, default=None, help="Rank for A/D families."),
        click.option("--p", type=int, default=None, help="First orbifold degree."),
        click.option("--q", type=int, default=None, help="Second orbifold degree."),
        click.option("--r", type=int, default=None, help="D-orbifold parameter."),
        click.option("--mu1", type=str, default=None,
                     help="Rational parameter of the 2D family."),
    ):
        fn = deco(fn)
    return fn


seed_option = click.option("--seed", type=int, default=DEFAULT_SEED,
                           show_default=True, help="Deterministic sampling seed.")
precision_option = click.option("--precision", type=int, default=DEFAULT_PRECISION,
                                show_default=True,
                                help="Working precision in bits for numeric families.")
output_option = click.option("--output", type=click.Path(writable=True), default=None,
                             help="Write the report here instead of stdout.")


@click.group()
def main():
    """Verification workbench for the genus-two free-energy identities."""


@main.command("verify-decomposition")
@click.option("--n", type=int, required=True, help="Number of canonical coordinates.")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--mode", type=click.Choice(["exact"]), default="exact",
              show_default=True, help="The identity is checked in exact arithmetic.")
@seed_option
@output_option
def cmd_verify_decomposition(n, trials, mode, seed, output):
    """Check the sixteen-graph decomposition at random exact points."""

    def body():
        report = check_decomposition(n, trials=trials, seed=seed)
        return _emit(report, output)

    _guarded(body)


@main.command("solve-coefficients")
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--samples", type=int, default=32, show_default=True)
@seed_option
@output_option
def cmd_solve_coefficients(n, samples, seed, output):
    """Re-derive the sixteen constants and compare with the catalog."""

    def body():
        solved = solve_coefficients(n, samples=samples, seed=seed)
        report = VerificationReport(command="solve-coefficients", n=n, seed=seed)
        for name in sorted(CONSTANTS, key=lambda s: int(s[1:])):
            got = solved[name]
            report.add_trial(name, str(got), got == CONSTANTS[name])
        return _emit(report, output)

    _guarded(body)


@main.command("verify-g2")
@_family_options
@click.option("--points", type=int, default=3, show_default=True)
@seed_option
@precision_option
@output_option
def cmd_verify_g2(family, n, p, q, r, mu1, points, seed, precision, output):
    """Check that the genus-two correction vanishes on a family."""
    spec = _family_spec(family, n, p, q, r, mu1)

    def body():
        report = g2_vanishing_check(spec, points=points, seed=seed, precision=precision)
        return _emit(report, output)

    _guarded(body)


@main.command("verify-relation")
@_family_options
@click.option("--points", type=int, default=3, show_default=True)
@seed_option
@precision_option
@output_option
def cmd_verify_relation(family, n, p, q, r, mu1, points, seed, precision, output):
    """Check the sixteen-term linear relation on a family."""
    spec = _family_spec(family, n, p, q, r, mu1)

    def body():
        report = relation_family_check(spec, points=points, seed=seed,
                                       precision=precision)
        return _emit(report, output)

    _guarded(body)


@main.command("compute-odiff")
@_family_options
@click.option("--points", type=int, default=0, show_default=True,
              help="Also verify the value on this many sampled points.")
@seed_option
@precision_option
@output_option
def cmd_compute_odiff(family, n, p, q, r, mu1, points, seed, precision, output):
    """Print the family's closed-form O1 - O2 value."""
    spec = _family_spec(family, n, p, q, r, mu1)

    def body():
        value = closed_form_o_difference(spec)
        if points <= 0:
            record = json.dumps(
                {"command": "compute-odiff", "family": spec.label,
                 "o_difference": str(value)},
                sort_keys=True,
            )
            if output:
                with open(output, "w") as fh:
                    fh.write(record + "\n")
            else:
                click.echo(record)
            return EXIT_PASS
        report = o_difference_check(spec, points=points, seed=seed, precision=precision)
        return _emit(report, output)

    _guarded(body)


@main.command("verify-gfunction")
@_family_options
@click.option("--points", type=int, default=3, show_default=True)
@seed_option
@precision_option
@output_option
def cmd_verify_gfunction(family, n, p, q, r, mu1, points, seed, precision, output):
    """Check the genus-one G-function gradients on a family."""
    spec = _family_spec(family, n, p, q, r, mu1)
    if spec.kind == "TwoDim":
        raise click.UsageError("the 2D family has no G-function closed form")

    def body():
        report = VerificationReport(
            command="verify-gfunction", n=spec.n, family=spec.label,
            seed=seed, precision=precision,
        )
        for k in range(points):
            point = sample(spec, seed=seed + k, precision=precision)
            part = gfunction_gradient_check(point, spec, precision=precision)
            report.trials.extend(part.trials)
        return _emit(report, output)

    _guarded(body)


@main.command("verify-residues")
@_family_options
@click.option("--draws", type=int, default=5, show_default=True)
@seed_option
@output_option
def cmd_verify_residues(family, n, p, q, r, mu1, draws, seed, output):
    """Run the residue-identity suite for a polynomial family."""
    spec = _family_spec(family, n, p, q, r, mu1)
    if spec.kind not in ("An", "Dn", "E6", "E8"):
        raise click.UsageError("no residue suite for the %s family" % spec.label)

    def body():
        report = residue_identity_suite(spec, seed=seed, draws=draws)
        return _emit(report, output)

    _guarded(body)


@main.command("enumerate-graphs")
@click.option("--emit", type=click.Choice(["json", "dot"]), default="json",
              show_default=True)
@output_option
def cmd_enumerate_graphs(emit, output):
    """List the sixteen canonical graphs and check the enumeration."""

    def body():
        classes = enumerate_admissible()
        named = {name: canonicalize(builtin(name))
                 for name in catalog_names() if name.startswith("Q")}
        lines = []
        for name in sorted(named, key=lambda s: int(s[1:])):
            g = named[name]
            if emit == "dot":
                lines.append(g.to_dot(name=name))
            else:
                rec = json.loads(g.to_json())
                rec["name"] = name
                lines.append(json.dumps(rec, sort_keys=True))
        ok = set(named.values()) == classes and len(classes) == 16
        lines.append(
            json.dumps(
                {"command": "enumerate-graphs", "classes": len(classes),
                 "catalog_matches": ok, "verdict": "pass" if ok else "fail"},
                sort_keys=True,
            )
        )
        text = "\n".join(lines) + "\n"
        if output:
            with open(output, "w") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
        return EXIT_PASS if ok else EXIT_FAIL

    _guarded(body)


@main.command("dump-expr")
@click.option("--what", type=click.Choice(["f2", "g2", "relation", "graph"]),
              required=True)
@click.option("--name", type=str, default=None,
              help="Catalog name when dumping a graph contraction.")
@click.option("--n", type=int, default=2, show_default=True)
@output_option
def cmd_dump_expr(what, name, n, output):
    """Write an expression as deterministic S-expression text."""
    alg = Algebra(n)

    def body():
        if what == "f2":
            expr = f2_reference(alg)
        elif what == "g2":
            expr = g2_function(alg)
        elif what == "relation":
            expr = relation_expression(alg)
        else:
            if name is None:
                raise click.UsageError("--name is required with --what graph")
            try:
                graph = builtin(name)
            except KeyError:
                raise click.UsageError("unknown graph %r" % name)
            from .graphs import graph_function

            expr = graph_function(graph, CorrelatorTable(alg))
        text = expr_dump(expr) + "\n"
        if output:
            with open(output, "w") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
        return EXIT_PASS

    _guarded(body)


if __name__ == "__main__":
    main()
