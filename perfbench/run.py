"""frobg2 benchmark: time to verdict on fixed checklists of verification calls.

    python3 perfbench/run.py --workload cli-numeric --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  One client drives the workload's
checklist as a closed loop, one call at a time, and passes over it
until the next pass would end after ``--seconds``; at least one pass
always runs.  Every report is checked (see check.py).  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones of BENCHMARK.json, measured untraced; their times are scaled to
a reference machine speed by probes taken through the run (speed.py).
With ``--trace 1`` an
untraced, a traced and another untraced pass run instead, and the
metrics are the per-layer ones taken from the traced pass.

    python3 perfbench/run.py --record-goldens

records the report digests of one default-seed pass of every workload
into goldens.json; the digests in the repository are the seed commit's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, namedtuple

import speed
from check import call_failure, digest, drifted
from tracer import DOMAINS
from workloads import (
    CLI_WORKLOADS,
    DEFAULT_SEED,
    SESSION_WORKLOAD,
    WORKLOADS,
    entry_name,
    session_calls,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
GOLDENS = os.path.join(HERE, "goldens.json")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_STARTS = 9
# probe units run at the start and end of a timed run, and before each
# measured process in it
PROBE_EDGE_UNITS = 4
PROBE_UNITS = 2
# the mpmath backend baseline.json was measured on; times taken on
# another backend (gmpy) are not comparable with it
BASELINE_BACKEND = "python"

perf = time.perf_counter
Proc = namedtuple("Proc", "returncode seconds rss_kb stdout")
Call = namedtuple("Call", "label seconds failure report")
Pass = namedtuple("Pass", "seconds calls rss_kb traces")


def child_env():
    env = dict(os.environ)
    # the thread pool gives wrong numeric verdicts, so an ambient
    # setting must not reach the measured processes
    env.pop("FROBG2_WORKERS", None)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv):
    """Run one process to completion; its peak RSS comes from wait4."""
    start = perf()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, perf() - start, usage.ru_maxrss, out)


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def cli_pass(calls, seed, workdir, traced, probes):
    results, trace_paths, rss = [], [], 0
    for k, call in enumerate(calls):
        argv = call.args + ["--seed", str(seed)]
        if probes is not None:
            probes.extend(speed.probe(PROBE_UNITS))
        if traced:
            trace_paths.append(os.path.join(workdir, "trace-%d.json" % k))
            proc = spawn([sys.executable, CHILD, "cli", trace_paths[-1], "--"] + argv)
        else:
            proc = spawn([sys.executable, "-m", "frobg2.cli"] + argv)
        rss = max(rss, proc.rss_kb)
        failure = call_failure(proc.returncode, proc.stdout, call.trials)
        results.append(Call(call.label, proc.seconds, failure, proc.stdout))
    # the calls run back to back, so a pass takes the sum of their times;
    # the probes between them are left out
    seconds = sum(c.seconds for c in results)
    traces = {call.label: _load(p) for call, p in zip(calls, trace_paths)}
    return Pass(seconds, results, rss, traces)


def session_pass(seed, workdir, traced, probes):
    out = os.path.join(workdir, "session.json")
    trace = os.path.join(workdir, "session-trace.json")
    for path in (out, trace):
        if os.path.exists(path):
            os.remove(path)
    proc = spawn([sys.executable, CHILD, "session", str(seed), out]
                 + ([trace] if traced else []))
    records = {rec["label"]: rec for rec in _load(out) or []}
    # the session probes the machine's speed before each of its calls;
    # the pass takes the session's time less those probes
    probe_s = [rec["probe_s"] for rec in records.values()]
    if probes is not None:
        probes.extend(probe_s)
    results = []
    for call in session_calls(seed):
        rec = records.get(call.label)
        if rec is None:
            results.append(Call(call.label, 0.0, "no record (exit status %d)"
                                % proc.returncode, None))
            continue
        report = None if rec["report"] is None else rec["report"].encode()
        failure = call_failure(proc.returncode, report, call.trials,
                               session=True, prec=rec["prec"])
        results.append(Call(call.label, rec["seconds"], failure, report))
    return Pass(proc.seconds - sum(probe_s), results, proc.rss_kb,
                {SESSION_WORKLOAD: _load(trace)} if traced else {})


def run_pass(workload, seed, workdir, traced=False, probes=None):
    """One pass over the checklist; with a ``probes`` list, the speed
    probe times taken before each call are appended to it."""
    if workload == SESSION_WORKLOAD:
        return session_pass(seed, workdir, traced, probes)
    return cli_pass(CLI_WORKLOADS[workload], seed, workdir, traced, probes)


def tail_percentile(values):
    """The highest percentile with at least ten samples above it, as
    (percent, value), or None with fewer than eleven samples."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


def count_drift(workload, seed, passes):
    """Calls whose report bytes differ from the default-seed goldens;
    None at any other seed."""
    if seed != DEFAULT_SEED:
        return None
    goldens = (_load(GOLDENS) or {}).get(workload, {})
    return sum(drifted(call.report, goldens.get(call.label))
               for p in passes for call in p.calls)


def timed_run(workload, seed, seconds, workdir):
    probes = speed.probe(PROBE_EDGE_UNITS)
    starts = [spawn([sys.executable, "-c", "import frobg2.cli"])
              for _ in range(SETUP_STARTS)]
    if any(p.returncode != 0 for p in starts):
        raise SystemExit("perfbench: frobg2.cli does not import")
    passes = []
    start = perf()
    while True:
        passes.append(run_pass(workload, seed, workdir, probes=probes))
        if perf() - start + statistics.median(p.seconds for p in passes) > seconds:
            break
    probes.extend(speed.probe(PROBE_EDGE_UNITS))
    # times are reported at the reference speed (see speed.py)
    scale = speed.factor(probes)
    times = [p.seconds for p in passes]
    tail = tail_percentile(times)
    print("speed probe median=%.4f s/unit units=%d scale=%.4f" % (
        statistics.median(probes), len(probes), scale))
    print("verdict_s wall: median=%.4f %s samples=%d passes=%s" % (
        statistics.median(times),
        "p%.0f=%.4f" % tail if tail else "tail=n/a (under 11 samples)",
        len(times), " ".join("%.3f" % t for t in times)))
    setup = statistics.median(p.seconds for p in starts)
    print("setup_s wall: median=%.4f" % setup)
    return passes, {
        "verdict_s": statistics.median(times) * scale,
        "setup_s": setup * scale,
        "peak_rss_mb": max(p.rss_kb for p in passes) / 1024.0,
    }


def _total(traces, key):
    out = Counter()
    for t in traces:
        out.update(t[key])
    return out


def _traced_wall(trace):
    """A child's wall time after import, less the tracer's own bookkeeping."""
    return trace["wall_s"] - trace["excluded_s"]


def layer_metrics(plain_s, traced):
    for label, t in traced.traces.items():
        print("coverage %s %.4f" % (label, sum(t["self_s"].values()) / _traced_wall(t)))
    traces = list(traced.traces.values())
    self_s = _total(traces, "self_s")
    calls = _total(traces, "calls")
    counts = _total(traces, "counts")
    eval_nodes = _total(traces, "eval_nodes")
    builds = [b for t in traces for b in t["dag_nodes"]]
    dag = sum(nodes for _, _, nodes in builds)
    created = sum(t["nodes_created"] for t in traces)
    for (name, n, nodes), times in Counter(map(tuple, builds)).items():
        print("dag_nodes %s n=%d %d (%d builds)" % (name, n, nodes, times))
    missing = sorted({m for t in traces for m in t["missing"]})
    if missing:
        print("trace: not found, so not traced: %s" % ", ".join(missing))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "genus2.build_s": self_s["genus2.build"],
        "genus2.build_calls": calls["genus2.build"],
        "graphs.contract_s": self_s["graphs.contract"],
        "graphs.contract_calls": calls["graphs.contract"],
        "correlators.recursion_s": self_s["correlators.recursion"],
        "correlators.calls": calls["correlators.recursion"],
        "algebra.derive_s": self_s["algebra.derive"],
        "algebra.derive_calls": calls["algebra.derive"],
        "expr.dag_nodes": dag,
        "expr.nodes_created": created,
        "expr.useful_node_ratio": ratio(dag, created),
        "families.sample_s": self_s["families.sample"],
        "families.sample_calls": calls["families.sample"],
        "exact.poly_roots_s": self_s["exact.poly_roots"],
        "exact.poly_roots_calls": calls["exact.poly_roots"],
        "exact.roots_per_sample": ratio(calls["exact.poly_roots"],
                                        counts["families.numeric_samples"]),
        "exact.companion_fallbacks": counts["exact.companion_fallbacks"],
        "exact.residue_s": self_s["exact.residue"],
        "exact.residue_calls": calls["exact.residue"],
        "families.residue_suite_s": self_s["families.residue_suite"],
        "radicals.tower_s": self_s["radicals.tower"],
        "genus2.trials_per_draw": ratio(counts["genus2.exact_trials"],
                                        counts["genus2.draws"]),
        "runtime.gc_s": sum(t["gc_s"] for t in traces),
        "runtime.gc_gen2": sum(t["gc_gen2"] for t in traces),
        "runtime.import_s": sum(t["import_s"] for t in traces),
        "cli.emit_s": self_s["cli.emit"],
        "trace.coverage": ratio(sum(self_s.values()),
                                sum(map(_traced_wall, traces))),
        "trace.overhead": traced.seconds / plain_s - 1.0,
    }
    for d in DOMAINS:
        m["expr.eval_s." + d] = self_s["expr.eval." + d]
        m["expr.eval_ns_per_node." + d] = 1e9 * ratio(self_s["expr.eval." + d],
                                                      eval_nodes[d])
    entries = [c.label for cs in CLI_WORKLOADS.values() for c in cs]
    entries += [entry_name(c.label) for c in session_calls(DEFAULT_SEED)]
    for entry in entries:
        m["cli.call_s." + entry] = 0.0
    for call in traced.calls:
        m["cli.call_s." + entry_name(call.label)] += call.seconds
    return m


def traced_run(workload, seed, workdir):
    # untraced passes on both sides of the traced one, so that a drift
    # in machine speed during the run cancels out of trace.overhead
    before = run_pass(workload, seed, workdir)
    traced = run_pass(workload, seed, workdir, traced=True)
    after = run_pass(workload, seed, workdir)
    if None in traced.traces.values():
        raise SystemExit("perfbench: a traced child wrote no trace")
    plain_s = (before.seconds + after.seconds) / 2
    return [before, traced, after], layer_metrics(plain_s, traced)


def with_units(values, declared):
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit("perfbench: metrics %s do not match BENCHMARK.json"
                         % sorted(set(values) ^ {m["name"] for m in declared}))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def environment(seed):
    import mpmath.libmp

    backend = mpmath.libmp.BACKEND
    return {"python": platform.python_version(), "mpmath_backend": backend,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "comparable": backend == BASELINE_BACKEND}


def record_goldens(workdir):
    goldens = {}
    for workload in WORKLOADS:
        p = run_pass(workload, DEFAULT_SEED, workdir)
        failed = [(c.label, c.failure) for c in p.calls if c.failure]
        if failed:
            raise SystemExit("perfbench: not recording failing reports: %s" % failed)
        goldens[workload] = {c.label: digest(c.report) for c in p.calls}
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_goldens and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "frobg2", "cli.py")):
        print("perfbench: no frobg2 sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # the build: byte-compile the sources once, before anything is timed
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.record_goldens:
            record_goldens(workdir)
            return 0
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        if args.trace:
            passes, values = traced_run(args.workload, args.seed, workdir)
            declared = spec["per_layer"]
        else:
            passes, values = timed_run(args.workload, args.seed, args.seconds,
                                       workdir)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir)
    calls = [c for p in passes for c in p.calls]
    for c in calls:
        if c.failure:
            print("FAILED %s: %s" % (c.label, c.failure))
    failed = sum(1 for c in calls if c.failure)
    drift = count_drift(args.workload, args.seed, passes)
    print("fail_ratio %d/%d" % (failed, len(calls)))
    print("report_drift %s" % ("n/a (not the default seed)" if drift is None else drift))
    result = {"correct": failed == 0 and not drift, "attempted": len(calls),
              "failed": failed, "metrics": with_units(values, declared)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
