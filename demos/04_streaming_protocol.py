"""
Streaming a skill through the five-slot window
==============================================

A skill of any length streams through five 44-byte slots: the PLC keeps
the window at the executing record plus four successors, the robot
acknowledges progress, and both sides exchange nothing but the two
cyclic process images.
"""

from skillbench.bench import SETUP_A, build_plans
from skillbench.core import ContinuousSkillPlan, MotionCommand, MotionType, Pose
from skillbench.fieldbus_sim import SimConfig, run
from skillbench.plc_trigger import ContinuousMotionProgram
from skillbench.robot_executor import RobotExecutor

# a 9-motion zigzag, longer than the window, every corner blended
motions = []
for i in range(9):
    motions.append(
        MotionCommand(
            motion_type=MotionType.LIN_CARTESIAN,
            target=Pose(20.0 * (i // 2 + 1), 20.0 * ((i + 1) // 2), 0.0),
            velocity=250.0,
            acceleration=2000.0,
            approx_distance=0.0 if i == 8 else 5.0,
        )
    )
plan = ContinuousSkillPlan(tuple(motions))

program = ContinuousMotionProgram([plan])
executor = RobotExecutor()
result = run(program, executor, SimConfig(seed=1))

print(f"executed {plan.record_count} records in {program.elapsed_ms:.1f} ms, "
      f"fallback stops: {executor.fallback_stops}")

# the trace logs every process-image change; watch loadedThrough walk
# ahead of the executing record
print("\ncommand-side trace:")
for event in result.trace.events:
    if event.source == "plc" and event.kind == "cmd":
        print(f"  t={event.t_us / 1000:8.1f} ms  {event.detail.rsplit(' ', 1)[0]}")

# starve the same skill by slowing the bus to 500 ms: the robot runs out
# of lookahead at the window edge and inserts exact stops, but the
# sequence completes without error
program = ContinuousMotionProgram([plan])
executor = RobotExecutor()
run(program, executor, SimConfig(bus_cycle_us=500_000, seed=1))
print(f"\nwith a 500 ms bus: {executor.fallback_stops} fallback stops, "
      f"{program.elapsed_ms:.1f} ms")

# the benchmark scenario's groups fit the window entirely, so even the
# slow bus cannot starve them once started
plans = build_plans(SETUP_A)
print("benchmark group sizes:", [p.record_count for p in plans], "(window is 5)")
