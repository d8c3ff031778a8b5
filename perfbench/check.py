"""Output checks: when a call counts as failed, and when its report drifted.

A call fails on a non-zero exit, a report that is missing, truncated or
unparsable, a verdict other than ``pass``, or a trial count different
from the one requested.  A library-session call also fails when it
changed ``mpmath.mp.prec``, the process-wide working precision.

Drift is separate from failure: a report can pass and still differ from
the bytes recorded for the same call at the default seed.
"""

from __future__ import annotations

import hashlib
import json


def _cli_records(report):
    """CLI reports are JSON lines: one per trial, then the summary."""
    records = [json.loads(line) for line in report.decode().splitlines()]
    if not records:
        raise ValueError("empty report")
    summary = records[-1]
    if summary.get("trials") != len(records) - 1:
        raise ValueError("summary counts %r trials, report has %d"
                         % (summary.get("trials"), len(records) - 1))
    return summary, records[:-1]


def _session_records(report):
    """Session reports are one VerificationReport.to_json() object."""
    summary = json.loads(report.decode())
    return summary, summary["trials"]


def call_failure(returncode, report, trials, session=False, prec=None):
    """Why a call failed, or None when it passed.

    ``report`` is the report bytes (None when the call produced none),
    ``trials`` the number of trials the call requested and ``prec`` the
    pair of ``mpmath.mp.prec`` values before and after a session call.
    """
    if returncode != 0:
        return "exit status %s" % returncode
    if report is None:
        return "no report"
    try:
        summary, records = (_session_records if session else _cli_records)(report)
        verdict = summary["verdict"]
        passed = [rec["pass"] for rec in records]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return "unparsable report (%s)" % exc
    if verdict != "pass" or not all(passed):
        return "verdict %r, %d of %d trials failed" % (
            verdict, sum(not p for p in passed), len(passed))
    if len(records) != trials:
        return "%d trials, %d requested" % (len(records), trials)
    if prec is not None and prec[0] != prec[1]:
        return "mpmath.mp.prec changed from %d to %d" % tuple(prec)
    return None


def digest(report):
    return {"sha256": hashlib.sha256(report).hexdigest(), "bytes": len(report)}


def drifted(report, golden):
    """True when report bytes differ from the recorded golden digest."""
    return report is None or digest(report) != golden
