"""
What chopping costs at other cycle times
========================================

Robot controllers differ in interpolation cycle, PLCs and buses in task
period.  Every skill boundary pays a handshake that crosses the PLC, the
bus and the robot grid, and every motion rounds up to whole robot cycles,
so the gap between single-motion and continuous skills depends on the
(PLC, bus, robot) cycle triple.  The setup is planned once; each triple
only runs it again.
"""

from skillbench.bench import SETUP_A, run_benchmark
from skillbench.core import ExecutionType
from skillbench.fieldbus_sim import SimConfig

CYCLES_MS = ((1, 1, 4), (1, 4, 4), (4, 4, 4), (1, 1, 12), (10, 8, 12))

print(f"setup {SETUP_A.name}, reps=10, seed=0")
print(f"{'plc, bus, robot ms':<20} {'aet_sm_ms':>10} {'aet_cm_ms':>10} {'aet_i':>7}")
for cycles in CYCLES_MS:
    sim = SimConfig(*(1000 * c for c in cycles))
    report = run_benchmark(
        SETUP_A, etypes=(ExecutionType.SM, ExecutionType.CM), reps=10, seed=0, sim=sim
    )
    sm = report.stats[ExecutionType.SM].aet_ms
    cm = report.stats[ExecutionType.CM].aet_ms
    label = ", ".join(map(str, cycles))
    print(f"{label:<20} {sm:>10.1f} {cm:>10.1f} {report.aet_i:>7.4f}")
