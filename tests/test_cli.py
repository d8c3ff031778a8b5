"""Command-line interface tests: exit codes, JSON-lines output shape,
reproducibility."""

import json

import mpmath
import pytest
from click.testing import CliRunner

from frobg2.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def lines(result):
    return [json.loads(s) for s in result.output.strip().splitlines()]


class TestExitCodes:
    def test_pass_is_zero(self, runner):
        res = runner.invoke(main, ["verify-decomposition", "--n", "1",
                                   "--trials", "2"])
        assert res.exit_code == 0

    def test_fail_is_one(self, runner):
        res = runner.invoke(main, ["verify-g2", "--family", "2d",
                                   "--mu1", "1/4", "--points", "1"])
        assert res.exit_code == 1

    def test_usage_is_two(self, runner):
        res = runner.invoke(main, ["verify-g2", "--family", "an"])
        assert res.exit_code == 2
        res = runner.invoke(main, ["verify-g2"])
        assert res.exit_code == 2
        res = runner.invoke(main, ["no-such-verb"])
        assert res.exit_code == 2


class TestOutputShape:
    def test_trials_then_summary(self, runner):
        res = runner.invoke(main, ["verify-decomposition", "--n", "1",
                                   "--trials", "3"])
        recs = lines(res)
        assert len(recs) == 4
        for k, rec in enumerate(recs[:3]):
            assert rec["trial"] == k
            assert rec["pass"] is True
        summary = recs[-1]
        assert summary["verdict"] == "pass"
        assert summary["trials"] == 3
        assert "tolerance" in summary

    def test_odiff_prints_closed_form(self, runner):
        res = runner.invoke(main, ["compute-odiff", "--family", "apq",
                                   "--p", "2", "--q", "2"])
        assert res.exit_code == 0
        rec = lines(res)[0]
        assert rec["o_difference"] == "2"

    def test_enumerate_graphs_json(self, runner):
        res = runner.invoke(main, ["enumerate-graphs"])
        recs = lines(res)
        assert res.exit_code == 0
        assert len(recs) == 17
        assert recs[0]["name"] == "Q1"
        assert recs[-1]["classes"] == 16

    def test_enumerate_graphs_dot(self, runner):
        res = runner.invoke(main, ["enumerate-graphs", "--emit", "dot"])
        assert res.exit_code == 0
        assert res.output.count("graph Q") == 16

    def test_dump_expr_round_trips(self, runner):
        from frobg2 import expr as ex

        res = runner.invoke(main, ["dump-expr", "--what", "f2", "--n", "1"])
        assert res.exit_code == 0
        parsed = ex.parse(res.output.strip())
        from frobg2.algebra import Algebra
        from frobg2.genus2 import f2_reference

        assert parsed is f2_reference(Algebra(1))


class TestReproducibility:
    def test_same_seed_same_bytes(self, runner):
        args = ["verify-g2", "--family", "2d", "--mu1", "1/2",
                "--points", "2", "--seed", "33"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_workers_env_same_bytes(self, runner, monkeypatch):
        # a numeric family: the report bytes and mpmath's global
        # precision must not depend on a FROBG2_WORKERS setting
        args = ["verify-g2", "--family", "dr", "--r", "1", "--points", "2"]
        prec = mpmath.mp.prec
        solo = runner.invoke(main, args)
        monkeypatch.setenv("FROBG2_WORKERS", "2")
        pooled = runner.invoke(main, args)
        assert solo.exit_code == 0
        assert solo.output == pooled.output
        assert mpmath.mp.prec == prec
