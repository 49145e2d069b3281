import os

# optstop before numpy, so that its one-BLAS-thread default holds in this process too
import optstop  # noqa: F401
import numpy as np
import pytest

# acceptance tests register one line per criterion here; printed at the end
ACCEPTANCE_LINES = []
# wall seconds (set-up, module fixtures included, plus call) per test node id
_WALL = {}


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    # "<node id> (call)" while a test runs
    nodeid = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
    ACCEPTANCE_LINES.append((number, f"criterion {number:2d} [{status}] {name}{suffix}", nodeid))


def pytest_runtest_logreport(report):
    if report.when in ("setup", "call"):
        _WALL[report.nodeid] = _WALL.get(report.nodeid, 0.0) + report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line, nodeid in sorted(ACCEPTANCE_LINES):
        wall = _WALL.get(nodeid)
        terminalreporter.write_line(line if wall is None else f"{line} [{wall:.2f}s wall]")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
