"""The suite-wide hooks of tests/conftest.py, run in a child pytest over
a copy of the conftest with its time bound lowered to 1 s.

A failure whose exception holds an integer past Python's int-to-str
digit limit must be reported with its digits, a failing assert on such
an integer must be reported too, and the next test must still run.  A
test that runs past the bound must fail under its own name with a
TimeoutError.
"""

import os
import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent / "conftest.py"

CHILD_TESTS = '''
import time


def test_huge_int_failure():
    raise AssertionError(10 ** 5000)


def test_huge_int_assert():
    huge = 10 ** 5000
    assert huge == 0


def test_runs_after_the_huge_int():
    pass


def test_sleeps_past_the_bound():
    time.sleep(5)
'''


def test_hooks_report_huge_ints_and_bound_each_test(tmp_path):
    source = CONFTEST.read_text()
    assert source.count("TIME_BOUND = 300\n") == 1
    (tmp_path / "conftest.py").write_text(source.replace("TIME_BOUND = 300\n", "TIME_BOUND = 1\n"))
    (tmp_path / "test_child.py").write_text(CHILD_TESTS)
    # The child loads no installed plugin: the hooks under test are the
    # conftest's, and importing plugins would double the child's run time.
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout
    assert proc.returncode == 1, out + proc.stderr
    assert "INTERNALERROR" not in out + proc.stderr
    assert "test_child.py::test_huge_int_failure FAILED" in out
    assert "1" + "0" * 5000 in out
    assert "test_child.py::test_huge_int_assert FAILED" in out
    assert "test_child.py::test_runs_after_the_huge_int PASSED" in out
    assert "test_child.py::test_sleeps_past_the_bound FAILED" in out
    assert "TimeoutError: test_child.py::test_sleeps_past_the_bound ran past the 1 s bound" in out
    assert "3 failed, 1 passed" in out
