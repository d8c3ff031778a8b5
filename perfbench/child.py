"""One child process of the benchmark.

    python3 perfbench/child.py cli TRACE_OUT -- <frobg2 arguments>
    python3 perfbench/child.py session SEED OUT [TRACE_OUT]

``cli`` runs one frobg2 command with layer tracing on and writes its
report to stdout exactly as ``python3 -m frobg2.cli`` does; untraced CLI
calls run that module directly.  ``session`` runs the session-n4
checklist in this one interpreter and writes, for every call, its
report, its time, the mpmath precision before and after it and the time
of one speed probe unit run just before it (see speed.py) to OUT.
With a TRACE_OUT path the layer totals are written there at the end.
The import of frobg2 is timed apart from the work that follows it.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_cli(trace_out, args):
    from tracer import Tracer

    tracer = Tracer(STARTED)
    import frobg2.cli

    tracer.install()
    try:
        frobg2.cli.main.main(args=args, prog_name="frobg2")
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.write(trace_out)
    return code


def run_session(seed, out, trace_out):
    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer(STARTED)
    import mpmath

    import frobg2.families as families
    import frobg2.genus2  # noqa: F401  families imports it lazily; load it before patching
    import speed
    from workloads import session_calls

    if tracer:
        tracer.install()
    excluding = tracer.excluding if tracer else contextlib.nullcontext
    records = []
    for call in session_calls(seed):
        with excluding():
            (probe_s,) = speed.probe(1)
        spec = getattr(families.FamilySpec, call.ctor)(*call.ctor_args)
        check = getattr(families, call.check)
        prec_before = mpmath.mp.prec
        start = time.perf_counter()
        try:
            report = check(spec, points=call.trials, seed=call.seed)
        except Exception:  # recorded as a failed call; the session goes on
            traceback.print_exc()
            report = None
        seconds = time.perf_counter() - start
        with excluding():
            records.append({
                "label": call.label,
                "seconds": seconds,
                "prec": [prec_before, mpmath.mp.prec],
                "probe_s": probe_s,
                "report": None if report is None else report.to_json(),
            })
    with excluding():
        with open(out, "w") as fh:
            json.dump(records, fh)
    if tracer:
        tracer.write(trace_out)
    return 0


def main(argv):
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if argv[:1] == ["session"] and len(argv) in (3, 4):
        return run_session(int(argv[1]), argv[2], argv[3] if len(argv) == 4 else None)
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
