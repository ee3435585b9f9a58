"""The package surface that the benchmark under ``perfbench/`` relies on.

``perfbench`` looks the package up by name: its tracer wraps codec, timing
and entry-point functions on the modules that call them, and each workload
builds its plans, programs and executors from the package.  One round of
every workload, run as ``perfbench/run.py`` runs a traced sample, fails
here when a change removes or renames a name the benchmark uses.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

# perfbench's scripts import their siblings by bare name
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as perfbench_run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Sample  # noqa: E402


def imported_skillbench():
    """The modules ``run.load_skillbench`` hands the workloads, taken as
    imported already: reloading them would leave other tests holding
    classes of a second copy."""
    return SimpleNamespace(
        **{m: importlib.import_module(f"skillbench.{m}") for m in perfbench_run.MODULES}
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_round_of_each_workload(name):
    sb = imported_skillbench()
    tracer = Tracer(sb)
    wl = WORKLOADS[name](sb, seed=7)
    samples = []
    for k in range(wl.round_size):
        inp = wl.make_input(k)
        expected = wl.oracle(inp)
        sample = Sample(k=k, host_s=0.0)
        with tracer.installed():
            out = wl.execute(inp)
        wl.observe(sample, inp, expected, out)
        samples.append(sample)
    wl.check_all(samples)
    assert [s.error for s in samples] == [None] * wl.round_size
    assert tracer.stats["fieldbus_sim.run"].calls == wl.round_size
    assert tracer.is_clean()
