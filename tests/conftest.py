"""Fixtures every test uses."""

import os

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
