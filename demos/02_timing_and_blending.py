"""
Trapezoidal timing and corner blending
======================================

How long does a motion take, and what does rounding a corner buy?  The
timing model is a trapezoidal velocity profile per segment plus
constant-speed circular arcs at blended corners.  The group times below
are the ones a robot executes: each motion's duration as the native
executor captures it, rounded up to whole µs.
"""

import math

from skillbench.core import ContinuousSkillPlan, MotionCommand, MotionType, Pose
from skillbench.robot_executor import NativeExecutor
from skillbench.trajectory import segment_time
from skillbench.wire import CommandFrame, CommandWord, RobotState, encode_command_frame

# a 100 mm segment at 250 mm/s with 2000 mm/s^2: accelerate, cruise, brake
# (length, v_max, accel, v_in, v_out)
print(f"100 mm rest to rest:     {segment_time(100.0, 250.0, 2000.0, 0.0, 0.0):.6f} s")

# entering and leaving at speed shortens the ramps
print(f"same, through traffic:   {segment_time(100.0, 250.0, 2000.0, 100.0, 100.0):.6f} s")


def lin(target, approx=0.0, velocity=250.0, acceleration=2000.0):
    return MotionCommand(
        motion_type=MotionType.LIN_CARTESIAN,
        target=target,
        velocity=velocity,
        acceleration=acceleration,
        approx_distance=approx,
    )


def executed_us(*motions):
    """Each motion's executed duration in µs: the motions stored on the
    controller as one continuous group, run from the origin with START
    held."""
    robot = NativeExecutor([ContinuousSkillPlan(motions)], capture=True)
    start = encode_command_frame(CommandFrame(command=CommandWord.START))
    t_us = 0
    while robot.state is not RobotState.DONE:
        robot.tick(t_us, start)
        t_us += 4000
    return [duration for _first, _count, _target, duration in robot.executed]


def show(label, durations):
    print(f"{label:<25}{sum(durations) / 1e6:.6f} s  (motions: {durations} µs)")


# an L-shaped path: 100 mm out, right angle, 100 mm up
elbow, top = Pose(100.0, 0.0, 0.0), Pose(100.0, 100.0, 0.0)
stopped = executed_us(lin(elbow), lin(top))
blended = executed_us(lin(elbow, approx=10.0), lin(top))
print()
show("L-shape with full stop:", stopped)
show("L-shape blended (10 mm):", blended)
saved = sum(stopped) - sum(blended)
print(f"saved:                   {saved / 1000:.1f} ms ({saved / sum(stopped):.1%})")

# blending is never allowed to lose.  A sharp corner between a slow,
# low-acceleration motion and a fast one would force the arc to crawl at
# the slow motion's pace; stopping and sprinting is cheaper, so the
# corner degrades to an exact stop and executes as if approx were 0
turn = math.radians(140.0)
elbow = Pose(80.0, 0.0, 0.0)
far = Pose(80.0 + 80.0 * math.cos(turn), 80.0 * math.sin(turn), 0.0)
sprint = lin(far, velocity=200.0)
creep_blended = executed_us(lin(elbow, approx=3.0, velocity=40.0, acceleration=300.0), sprint)
creep_stopped = executed_us(lin(elbow, velocity=40.0, acceleration=300.0), sprint)
print()
show("creep-to-sprint, 3 mm:", creep_blended)
show("same, exact stop:", creep_stopped)
print(f"corner degraded to a stop: {creep_blended == creep_stopped}")
