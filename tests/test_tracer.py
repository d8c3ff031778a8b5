"""The benchmark's tracer still finds every name it patches.

``perfbench/tracer.py`` wraps package functions and methods by name
(the DAG builders, ``random_context``, ``EvalContext.evaluate``, the
``CorrelatorTable`` methods, ...).  A refactor that removes or renames
one of them would otherwise show only in a traced benchmark pass."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import time
import tracer
{imports}
t = tracer.Tracer(time.perf_counter())
t.install()
print(t.missing)
"""


@pytest.mark.parametrize("imports", [
    "import frobg2.cli",
    "import frobg2.families\nimport frobg2.genus2",
], ids=["cli", "session"])
def test_install_finds_every_name(imports):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    res = subprocess.run([sys.executable, "-c", INSTALL.format(imports=imports)],
                         env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
