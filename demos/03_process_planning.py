"""
From a process description to continuous motion groups
======================================================

The planner turns a declarative step list (paths the process needs,
standstill actions, transits in between) into skill plans: labelled,
extended by pre/post moves, routed, and split into continuous groups at
every standstill.
"""

from skillbench.bench import SETUP_A, build_scenario
from skillbench.planner import StepKind, plan


def xyz(p):
    return f"({p.x:.0f},{p.y:.0f},{p.z:.0f})"


# the built-in pick and place: descend, grip, carry over, release, return
steps = build_scenario(SETUP_A)
for s in steps:
    if s.kind is StepKind.STANDSTILL_ACTION:
        print(f"standstill at {xyz(s.pose)}: {s.action}")
    elif s.kind is StepKind.PRIMARY_PATH:
        print(f"primary    {xyz(s.entry)} -> {xyz(s.exit)}")
    else:
        to = xyz(s.to_pose) if s.to_pose is not None else "the next step"
        print(f"transit    to {to}")
print()

# planning happens in four passes: label path types, plan the primary
# paths, extend them with collinear pre/post moves, route the transits,
# then coalesce everything into groups that run without stopping
plans = plan(steps, SETUP_A.planning_config())
print(f"{len(plans)} continuous groups, "
      f"{sum(p.record_count for p in plans)} records total\n")

for i, p in enumerate(plans):
    ending = f"ends with {p.terminal_action!r}" if p.terminal_action else "final group"
    print(f"group {i}: {len(p.motions)} motions, {ending}")

# each group runs as one continuous skill; only the last motion must end
# exactly on its target (approx 0), the others may blend into the next
print()
for m in plans[0].motions:
    print(f"  {m.motion_type.name:<13} to {xyz(m.target)}  "
          f"v={m.velocity:g} a={m.acceleration:g} approx={m.approx_distance:g}")
print()

# resolved waypoint chains show the actual geometry; note how the pre
# move at (0, 0, 80) continues straight into the descend to the pick
# each group starts where the one before it ended
start = SETUP_A.start
for i, p in enumerate(plans):
    pts = " -> ".join(xyz(q) for q in (start, *(m.target for m in p.motions)))
    print(f"group {i}: {pts}")
    start = p.motions[-1].target
