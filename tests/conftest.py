"""Fixtures every test uses."""

import os
import subprocess
import sys

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test this process has no child left, running or
    unreaped: the family suites reap every worker they fork, whether the
    suite returned or raised."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left behind (waitpid gave %d, status %d)"
                % (pid, status))


@pytest.fixture(autouse=True)
def own_cache_home(tmp_path, monkeypatch):
    """The CLI's DAG store (``genus2.stored_builds``) lives under the
    test's own directory, for a verb run in this process or in a child:
    no test reads or writes the user's ``~/.cache/frobg2``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


# CLI calls whose DAGs the perturbation gates rebuild: the decomposition
# at n=2 and the relation and O1 - O2 on An(3) and ApqOrbifold(1, 2)
_GATE_CALLS = [
    "verify-decomposition --n 2 --trials 1",
    "verify-relation --family an --n 3 --points 1",
    "verify-relation --family apq --p 1 --q 2 --points 1",
    "compute-odiff --family an --n 3 --points 1",
]


def _run(argv, env=None):
    """``python argv...`` in a process of its own with this package on
    its path and ``env`` (this process's environment by default)."""
    import frobg2

    src = os.path.dirname(os.path.dirname(os.path.abspath(frobg2.__file__)))
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    return subprocess.run([sys.executable] + argv, env=env, capture_output=True)


@pytest.fixture(scope="session")
def python_process():
    """``python_process(argv)`` runs ``python argv...`` as ``_run`` does,
    with the test's environment, and returns the CompletedProcess."""
    return _run


@pytest.fixture(scope="session")
def _gate_store(tmp_path_factory):
    home = tmp_path_factory.mktemp("warm-cache")
    env = dict(os.environ, XDG_CACHE_HOME=str(home))
    for args in _GATE_CALLS:
        assert _run(["-m", "frobg2.cli"] + args.split(), env).returncode == 0, args
    return home


@pytest.fixture()
def warm_store(_gate_store, monkeypatch):
    """A store that holds the as-is DAGs the perturbation gates rebuild.
    The gates call the library, which never reads the store, so a
    perturbed build still fails."""
    stored = {name.split("-")[0] for name in os.listdir(_gate_store / "frobg2")}
    assert stored == {"decomposition_residual", "f2_reference", "g2_function",
                      "relation_expression", "o_difference_graphs"}
    monkeypatch.setenv("XDG_CACHE_HOME", str(_gate_store))
