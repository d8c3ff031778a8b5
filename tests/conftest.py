"""Fixtures every test uses: guards that no child is left and that
mpmath's global precision is as the test found it, an empty point memo,
a DAG store of the test's own, and ``python_process``."""

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


def _mpmath_prec():
    """mpmath's global precision, or its default of 53 bits while mpmath
    is not loaded; read through ``sys.modules``, so nothing is loaded."""
    mpmath = sys.modules.get("mpmath")
    return 53 if mpmath is None else mpmath.mp.prec


@pytest.fixture(autouse=True)
def same_mpmath_precision():
    """Each test leaves mpmath's global precision as it found it: no
    suite, verb or worker may change the precision a later caller reads.
    A test that does is failed, and the precision is put back."""
    before = _mpmath_prec()
    yield
    after = _mpmath_prec()
    if after != before:
        sys.modules["mpmath"].mp.prec = before
        pytest.fail("mpmath's global precision was left at %d bits, not %d"
                    % (after, before))


@pytest.fixture(autouse=True)
def no_kept_points():
    """Each test starts with ``families.sample``'s memo empty, so that no
    point an earlier test drew, with a patched sampler or root finder or
    without one, is handed to this test in place of a fresh draw."""
    from frobg2 import families

    families._points.clear()


@pytest.fixture(autouse=True)
def own_cache_home(tmp_path, monkeypatch):
    """The CLI's DAG store (``genus2.stored_builds``) lives under the
    test's own directory, for a verb run in this process or in a child:
    no test reads or writes the user's ``~/.cache/frobg2``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


@pytest.fixture(scope="session")
def python_process():
    """``python_process(argv)`` runs ``python argv...`` in a process of
    its own, with this package on its path and the test's environment,
    and returns the CompletedProcess."""
    import frobg2

    src = os.path.dirname(os.path.dirname(os.path.abspath(frobg2.__file__)))

    def run(argv):
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable] + argv, env=env, capture_output=True)
    return run
