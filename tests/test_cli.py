"""Command-line interface tests: exit codes, JSON-lines output shape,
reproducibility."""

import hashlib
import json
import os

import mpmath
import pytest
from click.testing import CliRunner

from frobg2 import genus2
from frobg2.cli import main
from frobg2.exact import NonConvergenceError


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
        # arguments a constructor or an option range rejects, and verbs
        # the family has no closed form or suite for; none may reach a
        # suite, so none may report a verdict
        for args in [
            "verify-g2 --family an --n 0",
            "verify-g2 --family dn --n 2",
            "verify-g2 --family dr --r 0",
            "verify-g2 --family 2d --mu1 0",
            "verify-g2 --family 2d --mu1 1/0",
            "verify-g2 --family 2d --mu1 x",
            "verify-relation --family apq --p 0 --q 1",
            "verify-decomposition --n 0 --trials 1",
            "dump-expr --what g2 --n 0",
            "dump-expr --what graph",
            "dump-expr --what f2 --name Q3",
            "dump-expr --what relation --name Q3 --n 1",
            "solve-coefficients --samples 5",
            "solve-coefficients --n 1",
            "verify-g2 --family an --n 3 --points 0",
            "compute-odiff --family an --n 3 --points -1",
            "verify-residues --family e8 --draws 0",
            "verify-residues --family dr --r 1",
            "verify-gfunction --family 2d --mu1 1/2",
            # an option of another family is rejected, not ignored
            "compute-odiff --family an --n 3 --mu1 1/2",
            "verify-g2 --family dr --r 1 --p 5",
            "compute-odiff --family e6 --p 7",
            # below 2 bits the tolerance 2^-(p//2) is not below 1
            "verify-g2 --family an --n 3 --points 1 --precision 0",
            "verify-relation --family dr --r 1 --points 1 --precision 1",
            "verify-gfunction --family apq --p 1 --q 1 --points 1 --precision -70",
        ]:
            res = runner.invoke(main, args.split())
            assert res.exit_code == 2, args
            assert res.stdout == "", args

    def test_error_is_four(self, runner, monkeypatch):
        # a singular sampled system is an error, not a failed identity
        def singular(n, samples, seed):
            raise RuntimeError("sampled linear system is singular or inconsistent")

        monkeypatch.setattr("frobg2.cli.solve_coefficients", singular)
        res = runner.invoke(main, ["solve-coefficients", "--n", "2"])
        assert res.exit_code == 4
        assert res.stdout == ""
        assert "singular or inconsistent" in res.stderr


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


class TestOutputFile:
    @pytest.mark.parametrize("args", [
        "verify-g2 --family an --n 3 --points 1",  # a report
        "compute-odiff --family an --n 3",  # the closed-form record
        "enumerate-graphs --emit dot",  # graph lines
        "dump-expr --what g2 --n 2",  # a streamed dump
    ])
    def test_file_gets_the_stdout_bytes(self, runner, tmp_path, args):
        plain = runner.invoke(main, args.split())
        path = tmp_path / "out.txt"
        res = runner.invoke(main, args.split() + ["--output", str(path)])
        assert res.exit_code == plain.exit_code == 0
        assert res.stdout == ""
        assert path.read_bytes() == plain.stdout_bytes

    @pytest.mark.parametrize("args,target", [
        ("dump-expr --what g2 --n 2", "."),
        ("compute-odiff --family an --n 3", "missing/out.json"),
        ("verify-decomposition --n 3 --trials 20", "missing/out.json"),
    ])
    def test_bad_path_is_usage_error(self, runner, tmp_path, monkeypatch, args, target):
        # refused while the options are parsed: no suite runs
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr("frobg2.cli.check_decomposition", no_suite)
        res = runner.invoke(main, args.split() + ["--output", str(tmp_path / target)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--output" in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error,code", [
        (NonConvergenceError("no root"), 3),
        (RuntimeError("sampled linear system is singular or inconsistent"), 4),
    ])
    def test_no_file_without_output(self, runner, tmp_path, monkeypatch, error, code):
        def broken(n, samples, seed):
            raise error

        monkeypatch.setattr("frobg2.cli.solve_coefficients", broken)
        path = tmp_path / "out.json"
        res = runner.invoke(main, ["solve-coefficients", "--output", str(path)])
        assert res.exit_code == code
        assert res.stdout == ""
        assert not path.exists()


class TestReproducibility:
    def test_same_seed_same_bytes(self, runner):
        args = ["verify-g2", "--family", "2d", "--mu1", "1/2",
                "--points", "2", "--seed", "33"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_second_numeric_run_same_bytes(self, runner):
        # a numeric family run twice in one process: the second run (on
        # the kept DAG, with no collection before it forks) gives the
        # same bytes and leaves mpmath's global precision as it was
        args = ["verify-g2", "--family", "dr", "--r", "1", "--points", "2"]
        prec = mpmath.mp.prec
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        assert mpmath.mp.prec == prec


# exit code and sha256 of stdout for each command, recorded before the
# family table replaced the per-verb kind dispatch; the default seed.
# The Apq relation and compute-odiff entries and the relation and Q3
# dumps were re-recorded when vertex legs became covariant x-derivatives:
# only the DAG shapes and the rounding of numeric residuals moved.
GOLDEN = [
    ("verify-g2 --family an --n 3 --points 1", 0,
     "94bcfefc5785c22391dd9ebbbff15c372cb0d2209757d3571479091ec23cbc57"),
    ("verify-g2 --family dr --r 1 --points 1", 0,
     "24f73dd8fdfbb4b375be8b5c1fe557692a3e5fc47c48cfd786f9a2a875b2924f"),
    ("verify-g2 --family 2d --mu1 1/4 --points 1", 1,
     "69aed0804f43499240df1f9a82a5d0709d87c4d0e1f53cca0733e15f3c185b2c"),
    ("verify-relation --family dn --n 3 --points 1", 0,
     "c47bb3086bb42cf61bd1641d3064a1270a22c36e3e1aabf15e21ce1d97f47f9e"),
    ("verify-relation --family apq --p 1 --q 2 --points 1", 0,
     "96121460c535e7955c4e248ca477635a6acfb8455e086737d856e8dcff9b441f"),
    ("compute-odiff --family an --n 3", 0,
     "b431ca35ad539237793a694b2c66f649bb16e4dc96ffffd5b598dcf4ad611740"),
    ("compute-odiff --family dr --r 2", 0,
     "b3dd76bf97c1142305bfff36759c2694d1646c1a6c38684546a97988c6ab744f"),
    ("compute-odiff --family an --n 3 --points 1", 0,
     "99576898eca30e9b867de3311176b16f437313ecae8101e5d874571c5aa7137c"),
    ("compute-odiff --family apq --p 1 --q 2 --points 1", 0,
     "b60a6d6a9a227b36c1e41fa852d9d4216da447340d6e02bbad957a91c6526cec"),
    ("verify-gfunction --family an --n 3 --points 1", 0,
     "4bff3dce603c27c05ad00797cd37fa4baeb1e935b37b3ce604b440449e5d62b6"),
    ("verify-gfunction --family dr --r 1 --points 1", 0,
     "0548c478c88d5766952b4236fc757631394f1e86a9a05304548fe804743d4c5e"),
    ("verify-residues --family an --n 3 --draws 2", 0,
     "d95993d3c57a37cc0c644935a7a2deea104c86db66fcec66b3bfcd5929f55547"),
    ("verify-residues --family e6 --draws 2", 0,
     "1bb4324b4e946e536cb492e41ab0e2d9da230799c470190beaf762c95a03789e"),
    ("verify-decomposition --n 2 --trials 2", 0,
     "a9d8144539c023e1cf29ae32376ad0714ba1e9609e768367ad097e608db7e357"),
    ("solve-coefficients --n 2", 0,
     "75f159db2c5c29f133671240de3ec9916c0809b6d0bf2c619a6aa6afa2f217b3"),
    ("enumerate-graphs", 0,
     "57c4c96bfcbeebcad9a738ecd652f9b5e46ec3560d5cf198d4eb798fe9956c2a"),
    ("enumerate-graphs --emit dot", 0,
     "ea8ae82b4f171cc2c55b576732e90e81bc7bc50e98e40aeb6ac3a8fed37453dc"),
    ("dump-expr --what g2 --n 2", 0,
     "5c042f8b035224a093a75a90055bf43fd54c675d3492f19c2aeacff86c90d6e2"),
    ("dump-expr --what relation --n 2", 0,
     "9c00a6173b795d1d4557a728d8bd65cf79e76aa36f9373839053760d5ad17a73"),
    ("dump-expr --what graph --name Q3 --n 2", 0,
     "4badd7fa91a782ded05990c0f95fb4d7a72b13fb551321dedabb70d02c670e72"),
    ("dump-expr --what f2 --n 1", 0,
     "5c6541e50567d58f13ef5c3cc786f8718be6b1f5593bf35e19bf0713c66c7bcc"),
    ("verify-gfunction --family 2d --mu1 1/2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify-residues --family dr --r 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # an exactly real root of the sampler's polynomial: the residual
    # reads the noise in its imaginary part, so the root finder's last
    # bits move this digest
    ("verify-gfunction --family apq --p 1 --q 1 --points 2 --seed 24", 0,
     "b72f5ecf1d8f2c97891321ee428ff8b55dd955dd660e66d4c03c411e8c5abb0c"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("args,code,digest", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_same_bytes(self, runner, args, code, digest):
        res = runner.invoke(main, args.split())
        assert res.exit_code == code
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


class TestHelp:
    def test_family_options_in_declared_order(self, runner):
        res = runner.invoke(main, ["verify-g2", "--help"])
        assert res.exit_code == 0
        order = [res.output.index(opt) for opt in
                 ("--family", "--n ", "--p ", "--q ", "--r ", "--mu1", "--points")]
        assert order == sorted(order)


# a verb that builds one small DAG, and its golden stdout digest
G2_DUMP = "dump-expr --what g2 --n 2"
G2_DUMP_DIGEST = {args: digest for args, _, digest in GOLDEN}[G2_DUMP]


def _digest(data):
    return hashlib.sha256(data).hexdigest()


# store file (by builder and n) -> sha256, after a cold
# "verify-decomposition --n 2 --trials 1"
COLD_STORE = {
    "decomposition_residual-2":
        "3fc889a31ccc4b2e331fa5bde993457cd0c9a60119b2497df35a086176643b93",
    "f2_reference-2": "4042c24131068dd7b859a7c74fa8c371457e68c7ac927e28a82961ed37b75793",
    "g2_function-2": "280c95702dbfd7c5095d31092e981b7a6c064a62db17968aa2599701ca9d92d4",
}


class TestStoredBuilds:
    """Every verb runs with the DAG store on (``genus2.stored_builds``):
    a cold call builds its DAGs and writes them to
    ``$XDG_CACHE_HOME/frobg2``, a warm one loads them, and both print
    the same bytes."""

    @staticmethod
    def _store(home):
        """store file name -> (inode, mtime) in the store under ``home``."""
        root = home / "frobg2"
        return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in root.iterdir()} if root.is_dir() else {}

    @pytest.mark.parametrize("args,builders", [
        ("verify-relation --family e6 --points 1", {"relation_expression-6"}),
        ("verify-g2 --family an --n 6 --points 3", {"g2_function-6"}),
        ("verify-decomposition --n 3", {"decomposition_residual-3",
                                        "f2_reference-3", "g2_function-3"}),
        (G2_DUMP, {"g2_function-2"}),
    ])
    def test_cold_and_warm_same_bytes(self, python_process, tmp_path, args, builders):
        home = tmp_path / "cache"
        argv = ["-m", "frobg2.cli"] + args.split()
        cold = python_process(argv)
        stored = self._store(home)
        assert {name.rsplit("-", 1)[0] for name in stored} == builders
        warm = python_process(argv)
        assert cold.returncode == warm.returncode == 0
        assert warm.stdout == cold.stdout
        # a warm call loads and writes nothing: every file is the one written cold
        assert self._store(home) == stored

    def test_cold_store_bytes(self, python_process, tmp_path):
        # the files a cold call writes, pinned byte for byte
        res = python_process(["-m", "frobg2.cli", "verify-decomposition", "--n", "2",
                              "--trials", "1"])
        assert res.returncode == 0
        root = tmp_path / "cache" / "frobg2"
        assert {p.name.rsplit("-", 1)[0]: _digest(p.read_bytes())
                for p in root.iterdir()} == COLD_STORE

    @pytest.mark.parametrize("damage", ["truncated", "not-json", "wrong-root",
                                        "wrong-count"])
    def test_bad_file_is_rebuilt(self, runner, tmp_path, monkeypatch, damage):
        args = G2_DUMP.split()
        monkeypatch.setattr(genus2, "_built", {})
        first = runner.invoke(main, args)
        (path,) = (tmp_path / "cache" / "frobg2").iterdir()
        good = path.read_text()
        head, rows = good.split("\n", 1)
        header = json.loads(head + "]}")
        if damage == "truncated":
            bad = good[:len(good) // 2]
        elif damage == "not-json":
            bad = good.replace("[", "(")
        elif damage == "wrong-root":
            bad = head.replace(str(header["root"]), str(header["root"] + 1)) + "\n" + rows
        else:
            bad = head.replace('"nodes": %d' % header["nodes"],
                               '"nodes": %d' % (header["nodes"] + 1)) + "\n" + rows
        assert bad != good
        path.write_text(bad)
        monkeypatch.setattr(genus2, "_built", {})
        again = runner.invoke(main, args)
        assert first.exit_code == again.exit_code == 0
        assert _digest(first.stdout_bytes) == _digest(again.stdout_bytes) == G2_DUMP_DIGEST
        assert path.read_text() == good

    def test_cache_home_is_a_file(self, runner, tmp_path, monkeypatch):
        # nothing can be read or written there: the verb builds as without a store
        home = tmp_path / "file"
        home.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        monkeypatch.setattr(genus2, "_built", {})
        res = runner.invoke(main, G2_DUMP.split())
        assert res.exit_code == 0
        assert _digest(res.stdout_bytes) == G2_DUMP_DIGEST
        assert home.read_text() == ""

    def test_no_home_no_store(self, runner, tmp_path, monkeypatch):
        # no XDG_CACHE_HOME and no home directory: expanduser leaves "~"
        # as it is, and the store must not become the relative "~/.cache"
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(genus2, "_built", {})
        res = runner.invoke(main, G2_DUMP.split())
        assert res.exit_code == 0
        assert _digest(res.stdout_bytes) == G2_DUMP_DIGEST
        assert list(tmp_path.iterdir()) == []

    def test_other_versions_are_removed(self, runner, tmp_path, monkeypatch):
        # a write replaces the same builder and n under any other source
        # key, and leaves every other file alone
        root = tmp_path / "cache" / "frobg2"
        root.mkdir(parents=True)
        old = ["g2_function-2-%s.json" % key for key in ("0" * 64, "old")]
        kept = ["g2_function-20-old.json", "f2_reference-2-old.json",
                "g2_function-2-old.json.123.tmp", "notes.txt"]
        for name in old + kept:
            (root / name).write_text("{}")
        monkeypatch.setattr(genus2, "_built", {})
        res = runner.invoke(main, G2_DUMP.split())
        assert res.exit_code == 0
        assert _digest(res.stdout_bytes) == G2_DUMP_DIGEST
        written = "g2_function-2-%s.json" % genus2._source_key()
        assert sorted(p.name for p in root.iterdir()) == sorted(kept + [written])

    def test_loaded_dag_is_the_built_one(self, python_process):
        # in a fresh process, the decomposition residual loaded from the
        # store is the very DAG a later build returns: the nodes are
        # created in the order the writing process created them, so the
        # operands whose hashes tie are ordered alike
        assert python_process(["-m", "frobg2.cli", "verify-decomposition", "--n", "3",
                               "--trials", "1"]).returncode == 0
        script = "\n".join([
            "from frobg2 import genus2",
            "from frobg2.algebra import Algebra",
            "builder = genus2._TableBuilder",
            "genus2._TableBuilder = None  # a build would fail",
            "with genus2.stored_builds():",
            "    loaded = genus2.decomposition_residual(Algebra(3))",
            "genus2._TableBuilder = builder",
            "genus2._built.clear()",
            "assert genus2.decomposition_residual(Algebra(3)) is loaded",
        ])
        res = python_process(["-c", script])
        assert res.returncode == 0, res.stderr.decode()
