"""The three checklists the benchmark drives, one call at a time.

A CLI workload is a list of cold ``frobg2`` processes.  The session
workload is one long-lived interpreter that calls the library suites
directly, the way tier-1 or a notebook does.  Every call carries the
number of trials it requested, which the output check compares with
the report.
"""

from __future__ import annotations

from collections import namedtuple

# frobg2.report.DEFAULT_SEED; the golden report bytes are recorded at it
DEFAULT_SEED = 20120427

CliCall = namedtuple("CliCall", "label args trials")

CLI_WORKLOADS = {
    # symbolic build of the largest DAG (E6 relation, n=6) plus 256-bit
    # mpc evaluation and the numeric samplers; no exact evaluation
    "cli-numeric": [
        CliCall("verify-relation.e6",
                ["verify-relation", "--family", "e6", "--points", "1"], 1),
        CliCall("verify-g2.e7",
                ["verify-g2", "--family", "e7", "--points", "2"], 2),
    ],
    # Fraction and RadicalElem evaluation, term-table build, exact radical
    # sampling and the residue kernel; no mpc evaluation, no root finding
    "cli-exact": [
        CliCall("verify-decomposition.n3",
                ["verify-decomposition", "--n", "3", "--trials", "20"], 20),
        CliCall("verify-g2.an",
                ["verify-g2", "--family", "an", "--n", "6", "--points", "3"], 3),
        CliCall("verify-g2.dn",
                ["verify-g2", "--family", "dn", "--n", "5", "--points", "3"], 3),
        # the E8 suite records two checks per draw
        CliCall("verify-residues.e8",
                ["verify-residues", "--family", "e8", "--draws", "40"], 80),
    ],
}


SESSION_WORKLOAD = "session-n4"
SESSION_CHECKS = ("relation_family_check", "g2_vanishing_check", "o_difference_check")
# label, FamilySpec constructor, its arguments; every family has n=4
SESSION_FAMILIES = (
    ("apq", "ApqOrbifold", (2, 2)),
    ("dr", "DrOrbifold", (1,)),
    ("an", "An", (4,)),
    ("dn", "Dn", (4,)),
)
SESSION_POINTS = 2

SessionCall = namedtuple("SessionCall", "label check ctor ctor_args seed trials")


def session_calls(seed):
    """Every check on every family, then all of it again at a second
    seed whose points do not overlap the first round's."""
    calls = []
    for rnd, s in enumerate((seed, seed + SESSION_POINTS)):
        for check in SESSION_CHECKS:
            for family, ctor, ctor_args in SESSION_FAMILIES:
                calls.append(SessionCall("%s.%s#%d" % (check, family, rnd), check,
                                         ctor, ctor_args, s, SESSION_POINTS))
    return calls


WORKLOADS = tuple(CLI_WORKLOADS) + (SESSION_WORKLOAD,)


def entry_name(label):
    """The checklist entry a call belongs to: the label without its round."""
    return label.split("#")[0]
