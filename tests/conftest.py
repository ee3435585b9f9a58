import pytest
from hypothesis import HealthCheck, settings

from skillbench import robot_executor

# simulation-backed properties legitimately take tens of ms per example
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def solve_calls(monkeypatch):
    """Arguments of every ``solve_corners`` call the executors make
    during the test, in call order.  Both executors plan through it, so it
    sees the windows of ``run_native``, ``fieldbus_sim.run`` and
    ``run_benchmark`` alike.  The cache of solved windows, which the
    executors of ``bench._build_run`` solve through, is cleared first: a
    window that an earlier test solved would be a hit, and the test would
    not see it solved again."""
    robot_executor._solve_window.cache_clear()
    calls = []
    solve = robot_executor.solve_corners

    def recording(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(robot_executor, "solve_corners", recording)
    return calls
