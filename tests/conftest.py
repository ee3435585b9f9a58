import pytest
from hypothesis import HealthCheck, settings

from skillbench import bench, robot_executor

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
    ``run_benchmark`` alike.  The compiled setups are dropped first, as
    a setup compiled by an earlier test keeps the windows its runs solved
    and ``run_benchmark`` would solve none of them again."""
    bench.compile_setup.cache_clear()
    calls = []
    solve = robot_executor.solve_corners

    def recording(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(robot_executor, "solve_corners", recording)
    return calls
