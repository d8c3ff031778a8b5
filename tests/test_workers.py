"""Family suites and draw streams on forked workers.

Key oracles:
* neither a rerun nor the worker count changes a report: run three
  times in one process, on the kept DAG with its points drawn again,
  the bytes at one process (serial) are the bytes at two and three, on
  every suite verb and on the verbs whose draws share one random stream
  (decomposition, residues, solve);
* a draw stream redraws a degenerate draw that a worker finds exactly as
  the serial loop does, and the lowest failing draw decides the exit
  code;
* what a worker finds reaches the report and the exit code: a failing
  trial exits 1, a degenerate draw exits 3 with the serial message, any
  other exception exits 4;
* a run that fails at several points ends as the serial loop does, at
  its lowest failing point, for any worker count;
* the heap is collected before forking once per kept DAG, not once per
  suite call;
* no worker outlives its suite, also when this process's own share
  raises (and see ``conftest.no_child_left``).
"""

import dataclasses
import gc
import json
import os
import signal
import time

import mpmath
import pytest
from click.testing import CliRunner

from frobg2 import algebra, families, genus2
from frobg2.algebra import DegenerateSample, ResampleNeeded
from frobg2.cli import main
from frobg2.exact import NonConvergenceError
from frobg2.expr import EXACT
from frobg2.families import FAMILIES, sample
from frobg2.report import DEFAULT_PRECISION, DEFAULT_SEED

SUITE_VERBS = ["verify-g2", "verify-relation", "compute-odiff", "verify-gfunction"]


@pytest.fixture()
def workers(monkeypatch):
    """``workers(count)`` forces the suites onto ``count`` processes (at
    most one per point) and returns the list of forks made."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)

    def force(count):
        monkeypatch.setattr(algebra, "_worker_count",
                            lambda points: min(points, count))
        return forks

    return force


def _run(args):
    return CliRunner().invoke(main, args)


def _trials(res):
    """The report's trials without their index: (digest, residual, pass)."""
    out = []
    for line in res.stdout.splitlines()[:-1]:
        rec = json.loads(line)
        out.append((rec["point_digest"], rec["residual"], rec["pass"]))
    return out


class TestWorkerCount:
    @pytest.mark.parametrize("verb", SUITE_VERBS)
    @pytest.mark.parametrize("family", [["--family", "an", "--n", "4"],
                                        ["--family", "dr", "--r", "1"]],
                             ids=["An(4)", "Dr(1)"])
    def test_same_bytes(self, workers, verb, family):
        outputs = []
        for count in (1, 2, 3):
            forks = workers(count)
            made = len(forks)
            families._points.clear()  # each run draws its points on its own workers
            res = _run([verb] + family + ["--points", "3"])
            assert res.exit_code == 0, res.output
            assert len(forks) - made == count - 1
            outputs.append(res.stdout)
        assert len(outputs[0].splitlines()) > 3
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestWorkerFailures:
    @staticmethod
    def _in_worker_at_second_point(monkeypatch, change):
        """``families.sample`` with ``change(point)`` applied to the second
        point when a forked worker draws it."""
        parent = os.getpid()

        def changed(spec, seed, precision):
            point = sample(spec, seed=seed, precision=precision)
            if seed == DEFAULT_SEED + 1 and os.getpid() != parent:
                point = change(point)
            return point

        monkeypatch.setattr(families, "sample", changed)

    @pytest.mark.parametrize("verb", ["verify-g2", "verify-relation", "verify-gfunction"])
    @pytest.mark.parametrize("delta", [0, 2**-100], ids=["as-is", "perturbed"])
    def test_one_gamma(self, monkeypatch, workers, verb, delta):
        # the numeric gate can fail in a worker: gamma_12 of the second E6
        # point moved by a relative delta; verify-gfunction makes one
        # trial per gradient component, so six per point
        def perturb(point):
            gammas = dict(point.gammas)
            gammas[(1, 2)] *= 1 + mpmath.mpf(delta)
            return dataclasses.replace(point, gammas=gammas)

        workers(2)
        self._in_worker_at_second_point(monkeypatch, perturb)
        res = _run([verb, "--family", "e6", "--points", "2"])
        assert res.exit_code == (1 if delta else 0), res.output
        passes = {}  # point digest -> its trials' pass flags, in point order
        for line in res.stdout.splitlines()[:-1]:
            trial = json.loads(line)
            passes.setdefault(trial["point_digest"], []).append(trial["pass"])
        first, second = passes.values()
        assert len(first) == len(second) == (6 if verb == "verify-gfunction" else 1)
        assert all(first)
        assert all(second) == (not delta)

    def test_degenerate_draw_exits_three(self, monkeypatch, workers):
        def degenerate(spec, seed, precision):
            if seed == DEFAULT_SEED + 1:
                raise DegenerateSample(spec.label)
            return sample(spec, seed=seed, precision=precision)

        monkeypatch.setattr(families, "sample", degenerate)
        results = []
        for count in (1, 2):
            forks = workers(count)
            families._points.clear()
            results.append(_run(["verify-g2", "--family", "an", "--n", "3",
                                 "--points", "2"]))
        assert len(forks) == 1
        serial, forked = results
        assert serial.exit_code == forked.exit_code == 3
        assert forked.stderr == serial.stderr == "non-convergent: An(3)\n"
        assert forked.stdout == ""

    def test_other_error_exits_four(self, monkeypatch, workers):
        def fail(point):
            raise ValueError("worker bug")

        workers(2)
        self._in_worker_at_second_point(monkeypatch, fail)
        res = _run(["verify-g2", "--family", "an", "--n", "3", "--points", "2"])
        assert res.exit_code == 4
        assert res.stdout == ""
        assert "ValueError: worker bug" in res.stderr
        assert "in suite worker" in res.stderr
        assert "in fail" in res.stderr  # the worker's own traceback

    def test_lowest_failing_point_decides(self, monkeypatch, workers):
        # point 1 is degenerate and point 2 raises: as in the serial loop,
        # point 1 decides the exit code, whichever process holds it
        def two_failures(spec, seed, precision):
            if seed == DEFAULT_SEED + 1:
                raise DegenerateSample(spec.label)
            if seed == DEFAULT_SEED + 2:
                raise ValueError("later point")
            return sample(spec, seed=seed, precision=precision)

        monkeypatch.setattr(families, "sample", two_failures)
        results = []
        for count in (1, 2, 3):
            workers(count)
            families._points.clear()
            results.append(_run(["verify-g2", "--family", "an", "--n", "3",
                                 "--points", "3"]))
        assert [res.exit_code for res in results] == [3, 3, 3]
        assert [res.stderr for res in results] == ["non-convergent: An(3)\n"] * 3

    def test_worker_without_result_exits_four(self, monkeypatch, workers):
        def die(point):
            os.kill(os.getpid(), signal.SIGKILL)

        workers(2)
        self._in_worker_at_second_point(monkeypatch, die)
        res = _run(["verify-g2", "--family", "an", "--n", "3", "--points", "2"])
        assert res.exit_code == 4
        assert "status -9 and no result" in res.stderr


class TestCollection:
    def test_once_per_kept_dag(self, monkeypatch, workers):
        # the heap is collected before forking only when a DAG was kept
        # since the last collection: after a build, not on every call
        collects = []
        collect = gc.collect

        def counted(*args):
            collects.append(args)
            return collect(*args)

        monkeypatch.setattr(gc, "collect", counted)
        monkeypatch.setattr(genus2, "_built", {})
        forks = workers(2)
        counts = []
        for verb in ("verify-g2", "verify-g2", "verify-relation"):
            made, before = len(forks), len(collects)
            families._points.clear()
            res = _run([verb, "--family", "an", "--n", "3", "--points", "2"])
            assert res.exit_code == 0, res.output
            assert len(forks) - made == 1
            counts.append(len(collects) - before)
        assert counts == [1, 0, 1]


class TestSampleMemo:
    """Each family point is drawn once per process: the workers of a
    suite send the points they drew back, and the next suite on the
    same points looks them up."""

    SUITES = (families.relation_family_check, families.g2_vanishing_check,
              families.o_difference_check)

    @staticmethod
    def _counted_sampler(monkeypatch, tmp_path, kind):
        """``kind``'s sampler, counting its calls in every process in a
        file; returns a function that reads the count."""
        log = tmp_path / "sampler-calls"
        log.write_text("")
        real = FAMILIES[kind].sampler

        def counted(spec, rng, precision):
            with open(log, "a") as fh:
                fh.write("%d\n" % os.getpid())
            return real(spec, rng, precision)

        monkeypatch.setitem(FAMILIES, kind,
                            dataclasses.replace(FAMILIES[kind], sampler=counted))
        return lambda: len(log.read_text().splitlines())

    def test_suites_share_points(self, monkeypatch, tmp_path, workers):
        # relation, G2 and O1 - O2 on two Apq(2,2) points over two
        # processes: the worker's point comes back, so the sampler runs
        # twice, not six times, and every report is the one that fresh
        # draws give
        spec = families.FamilySpec.ApqOrbifold(2, 2)
        calls = self._counted_sampler(monkeypatch, tmp_path, "Apq")
        forks = workers(2)
        fresh = []
        for check in self.SUITES:
            families._points.clear()
            fresh.append(check(spec, points=2).to_json())
        assert calls() == 6
        families._points.clear()
        shared = [check(spec, points=2).to_json() for check in self.SUITES]
        assert calls() == 6 + 2
        assert shared == fresh
        assert len(forks) == 6
        assert set(families._points) == {(spec, DEFAULT_SEED + k, DEFAULT_PRECISION)
                                         for k in range(2)}

    def test_patched_sample_is_not_kept(self, monkeypatch, workers):
        # a wrapper of families.sample that moves gamma_12, in this
        # process and in the worker: the suite fails, but only the points
        # the real sample drew are kept, and a suite on them passes
        spec = families.FamilySpec.An(3)

        def perturbed(spec, **kwargs):
            point = sample(spec, **kwargs)
            gammas = dict(point.gammas)
            gammas[(1, 2)] = gammas[(1, 2)] + 1
            return dataclasses.replace(point, gammas=gammas)

        forks = workers(2)
        monkeypatch.setattr(families, "sample", perturbed)
        assert families.relation_family_check(spec, points=2).verdict == "fail"
        assert len(forks) == 1
        kept = dict(families._points)
        assert len(kept) == 2
        assert all(point.kernel is EXACT for point in kept.values())  # one came by pipe
        monkeypatch.setattr(families, "sample", sample)
        families._points.clear()
        for key, point in kept.items():  # each point is in a field of its own
            assert point.gammas == sample(*key).gammas
        families._points.update(kept)
        assert families.relation_family_check(spec, points=2).verdict == "pass"
        assert families._points == kept


class TestWorkerLifetime:
    def test_own_share_raises(self, workers):
        # this process raises at once while its worker is still asleep:
        # the worker is killed and reaped, not waited for
        workers(2)

        def share(k):
            if k == 0:
                raise ValueError("own share")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(ValueError, match="own share"):
            algebra.forked_map(share, range(2))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_in_item_order(self, workers):
        forks = workers(3)
        assert algebra.forked_map(lambda k: (k, k * k), range(7)) == [
            (k, k * k) for k in range(7)]
        assert len(forks) == 2

    def test_lowest_failure_in_longer_shares(self, workers):
        # seven items on three processes, so a process holds several: the
        # lowest failing item decides, whichever process holds it, and a
        # worker's exception names that worker
        def failing(raising):
            def fn(k):
                if k in raising:
                    raise raising[k](k, os.getpid())
                return k
            return fn

        forks = workers(3)
        with pytest.raises(KeyError) as first:
            algebra.forked_map(failing({1: KeyError, 4: ValueError}), range(7))
        assert first.value.args[0] == 1
        with pytest.raises(ValueError) as lowest:
            algebra.forked_map(failing({4: ValueError, 6: ValueError}), range(7))
        k, pid = lowest.value.args
        assert k == 4
        if pid != os.getpid():
            assert "in suite worker %d" % pid in str(lowest.value.__cause__)
        assert len(forks) == 4


STREAM_CALLS = {
    "decomposition": ["verify-decomposition", "--n", "2", "--trials", "5"],
    "residues-An(4)": ["verify-residues", "--family", "an", "--n", "4", "--draws", "3"],
    "residues-Dn(4)": ["verify-residues", "--family", "dn", "--n", "4", "--draws", "3"],
    "residues-E6": ["verify-residues", "--family", "e6", "--draws", "3"],
    "residues-E8": ["verify-residues", "--family", "e8", "--draws", "3"],
    "solve": ["solve-coefficients", "--n", "2"],
}


def _an_computes(monkeypatch, change):
    """The An residue draws with ``change(k, compute)`` in place of the
    compute of the k-th draw that is not degenerate (k from 0), counted
    in the drawing process; returns the list of those computes, which
    the caller empties before each run."""
    real = FAMILIES["An"].residue_checks
    drawn = []

    def checks(spec, rng):
        compute = real(spec, rng)
        if compute is None:
            return None
        drawn.append(compute)
        return change(len(drawn) - 1, compute)

    monkeypatch.setitem(FAMILIES, "An",
                        dataclasses.replace(FAMILIES["An"], residue_checks=checks))
    return drawn


AN_RESIDUES = ["verify-residues", "--family", "an", "--n", "4", "--draws"]


class TestDrawStream:
    @pytest.mark.parametrize("args", list(STREAM_CALLS.values()), ids=list(STREAM_CALLS))
    def test_same_bytes(self, workers, args):
        outputs = []
        for count in (1, 2, 3):
            forks = workers(count)
            made = len(forks)
            res = _run(args)
            assert res.exit_code == 0, res.output
            assert (len(forks) > made) == (count > 1)
            outputs.append(res.stdout)
        assert len(outputs[0].splitlines()) > 3
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_resample_on_second_context(self, monkeypatch, workers):
        # the second generic point hits a vanishing denominator wherever it
        # is evaluated: it is redrawn, and the report is the serial one,
        # that of the first six points without the second
        workers(1)
        serial = _trials(_run(["verify-decomposition", "--n", "2", "--trials", "6"]))
        real = genus2.random_context
        drawn = []

        def draw(n, rng):
            ctx = real(n, rng)
            drawn.append(ctx)
            if len(drawn) == 2:
                def evaluate(e):
                    raise ResampleNeeded("forced")

                ctx.evaluate = evaluate
            return ctx

        monkeypatch.setattr(genus2, "random_context", draw)
        for count in (1, 2, 3):
            workers(count)
            del drawn[:]
            res = _run(["verify-decomposition", "--n", "2", "--trials", "5"])
            assert res.exit_code == 0, res.output
            assert len(drawn) == 6
            assert _trials(res) == serial[:1] + serial[2:]

    def test_degenerate_residue_compute(self, monkeypatch, workers):
        # the second An(4) draw turns out degenerate when it is computed:
        # the report is the serial one, that of the first four draws
        # without the second (five trials a draw)
        workers(1)
        serial = _trials(_run(AN_RESIDUES + ["4"]))
        assert len(serial) == 20 and len({t[0] for t in serial}) == 20
        drawn = _an_computes(monkeypatch, lambda k, compute: (
            (lambda: None) if k == 1 else compute))
        for count in (1, 2, 3):
            workers(count)
            del drawn[:]
            res = _run(AN_RESIDUES + ["3"])
            assert res.exit_code == 0, res.output
            assert len(drawn) == 4
            assert _trials(res) == serial[:5] + serial[10:]

    @pytest.mark.parametrize("first,second,code", [
        (NonConvergenceError, ValueError, 3),
        (ValueError, NonConvergenceError, 4),
    ], ids=["non-convergent-first", "error-first"])
    def test_lowest_failing_draw_decides(self, monkeypatch, workers, first, second, code):
        # the second draw raises ``first`` and the third ``second``, in
        # whichever processes compute them
        def fail(k, compute):
            if k in (1, 2):
                exc = (first, second)[k - 1]("draw %d" % k)

                def raising():
                    raise exc

                return raising
            return compute

        drawn = _an_computes(monkeypatch, fail)
        for count in (1, 2, 3):
            workers(count)
            del drawn[:]
            res = _run(AN_RESIDUES + ["3"])
            assert (count, res.exit_code) == (count, code), res.output
            assert res.stdout == ""
            if code == 3:
                assert res.stderr == "non-convergent: draw 1\n"
            else:
                assert "ValueError: draw 1" in res.stderr

    def test_failing_draw_after_failing_compute(self, monkeypatch, workers):
        # the second draw's compute raises and the third draw itself
        # raises while it is drawn, before any compute of its batch runs:
        # the earlier draw decides
        def fail(k, compute):
            if k == 1:
                def raising():
                    raise NonConvergenceError("draw 1")

                return raising
            if k == 2:
                raise ValueError("draw 2")
            return compute

        drawn = _an_computes(monkeypatch, fail)
        for count in (1, 2, 3):
            workers(count)
            del drawn[:]
            res = _run(AN_RESIDUES + ["3"])
            assert (count, res.exit_code) == (count, 3), res.output
            assert res.stderr == "non-convergent: draw 1\n"


class TestResidueGate:
    @pytest.mark.parametrize("delta", [0, 1], ids=["as-is", "moved"])
    def test_one_residue_in_worker(self, monkeypatch, workers, delta):
        # the residue gate can fail in a worker: every exact residue that a
        # forked worker computes moved by delta.  With two processes the
        # worker computes the third of three draws; its "root pair" trial
        # sums two residues, its "infinity" trial calls none
        parent = os.getpid()
        real = families.residue

        def moved(num, den, at):
            out = real(num, den, at)
            return out + delta if os.getpid() != parent else out

        monkeypatch.setattr(families, "residue", moved)
        forks = workers(2)
        res = _run(["verify-residues", "--family", "e8", "--draws", "3"])
        assert len(forks) == 1
        assert res.exit_code == (1 if delta else 0), res.output
        assert [t[2] for t in _trials(res)] == [True, True, True, True, not delta, True]
