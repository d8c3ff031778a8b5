"""Self-test of the output checks: each kind of bad report counts as failed.

    python3 perfbench/selftest.py

Needs no frobg2 sources; it feeds check.py hand-made reports in the CLI
and session formats and exits non-zero if any verdict is wrong.
"""

import json
import sys

from check import call_failure, digest, drifted


def cli_report(trials=3, verdict="pass", failing_trial=None):
    lines = [json.dumps({"pass": k != failing_trial, "point_digest": "%016x" % k,
                         "residual": "0", "trial": k}, sort_keys=True)
             for k in range(trials)]
    lines.append(json.dumps({"command": "verify-g2", "family": "An(6)", "n": 6,
                             "trials": trials, "verdict": verdict}, sort_keys=True))
    return ("\n".join(lines) + "\n").encode()


def session_report(trials=2, verdict="pass"):
    return json.dumps({"command": "verify-relation", "n": 4, "family": "An(4)",
                       "trials": [{"point_digest": "0", "residual": "0", "pass": True}
                                  for _ in range(trials)],
                       "verdict": verdict}).encode()


def main():
    good = cli_report()
    cases = [
        # (case, failure reason or None, whether it must count as failed)
        ("good CLI report", call_failure(0, good, 3), False),
        ("good session report",
         call_failure(0, session_report(), 2, session=True, prec=(53, 53)), False),
        ("wrong verdict", call_failure(0, cli_report(verdict="fail", failing_trial=1), 3), True),
        ("failing trial under a pass summary",
         call_failure(0, cli_report(failing_trial=0), 3), True),
        ("truncated mid-line", call_failure(0, good[:len(good) // 2], 3), True),
        ("truncated before the summary",
         call_failure(0, b"".join(good.splitlines(True)[:-1]), 3), True),
        ("empty report", call_failure(0, b"", 3), True),
        ("no report", call_failure(0, None, 3), True),
        ("non-zero exit", call_failure(1, good, 3), True),
        ("non-convergent exit", call_failure(3, b"", 3), True),
        ("trial count differs", call_failure(0, good, 4), True),
        ("session verdict fail",
         call_failure(0, session_report(verdict="fail"), 2, session=True, prec=(53, 53)), True),
        ("session precision leak",
         call_failure(0, session_report(), 2, session=True, prec=(53, 320)), True),
        ("session trial count differs",
         call_failure(0, session_report(trials=1), 2, session=True, prec=(53, 53)), True),
    ]
    wrong = 0
    for case, failure, must_fail in cases:
        ok = (failure is not None) == must_fail
        wrong += not ok
        print("%-4s %-36s %s" % ("ok" if ok else "BAD", case, failure or "passed"))
    drift_cases = [
        ("identical bytes", drifted(good, digest(good)), False),
        ("one byte changed", drifted(good.replace(b'"0"', b'"1"', 1), digest(good)), True),
        ("no golden recorded", drifted(good, None), True),
    ]
    for case, drift, must_drift in drift_cases:
        ok = drift == must_drift
        wrong += not ok
        print("%-4s %-36s %s" % ("ok" if ok else "BAD", case, "drift" if drift else "same"))
    print("selftest: %s" % ("all checks behave" if not wrong else "%d wrong" % wrong))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
