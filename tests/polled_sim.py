"""Reference co-simulation loop: every task runs at every point of its grid.

This is the loop ``fieldbus_sim.run`` replaced.  It ticks the PLC, the bus
and the robot at each of their grid points whether or not an input changed,
so it rests neither on the executor's wakeup reports nor on the program's
contract that one tick reaches the fixed point of its feedback: it takes a
full ``plc_tick`` at every PLC grid point.  The differential tests require
``run`` to reproduce its trace, result and exceptions exactly, so they
check that contract too.  Like ``run``, it decodes each feedback image
once, when the robot publishes it, and hands the PLC that frame (the
decoded IDLE image before the first delivery).  It hashes and formats
every published and every delivered frame as it goes, through
``SimTrace.add``, so the comparison also checks that the lazy trace of
``run`` names each delivery by the right frame.
"""

import random

from skillbench.fieldbus_sim import (
    _IDLE_FEEDBACK,
    SimResult,
    SimTimeout,
    SimTrace,
    _cmd_summary,
    _fb_summary,
    _hash12,
    rep_seed,
)
from skillbench.wire import (
    IDLE_COMMAND_BYTES,
    IDLE_FEEDBACK_BYTES,
    decode_command_header,
    decode_feedback_frame,
)


def run_polled(program, executor, config):
    rng = random.Random(rep_seed(config.seed, config.rep))
    phase_plc = rng.randrange(config.plc_cycle_us)
    phase_bus = rng.randrange(config.bus_cycle_us)
    phase_robot = rng.randrange(config.robot_cycle_us)

    trace = SimTrace()
    trace.add(0, "sim", "phases", f"plc={phase_plc} bus={phase_bus} robot={phase_robot}")

    # published images and delivered images, all by reference, and beside
    # each feedback image the frame decoded at its publish
    plc_out = IDLE_COMMAND_BYTES
    robot_out = IDLE_FEEDBACK_BYTES
    cmd_at_robot = IDLE_COMMAND_BYTES
    fb_at_plc = IDLE_FEEDBACK_BYTES
    robot_fb = plc_fb = _IDLE_FEEDBACK

    next_plc = phase_plc
    next_bus = phase_bus
    next_robot = phase_robot
    finished_at = None

    while True:
        t = min(next_plc, next_bus, next_robot)
        if t > config.timeout_us:
            trace.add(t, "sim", "timeout", f"after {config.timeout_us} us")
            raise SimTimeout(f"no completion within {config.timeout_us} us")
        # tie order: PLC before bus before robot
        if next_plc == t:
            try:
                out = program.plc_tick(t, plc_fb)
            except Exception as e:
                trace.add(t, "plc", "error", f"{type(e).__name__}: {e}")
                raise
            if out is not plc_out:
                plc_out = out
                trace.add(t, "plc", "cmd", _cmd_summary(decode_command_header(out), _hash12(out)))
            if program.t_start_us == t:
                trace.add(t, "plc", "measure", "start")
            if program.t_end_us == t:
                trace.add(t, "plc", "measure", "end")
            if program.finished:
                finished_at = t
                trace.add(t, "sim", "finished", f"t={t}")
                break
            next_plc += config.plc_cycle_us
        if next_bus == t:
            # one atomic exchange of both directions
            if plc_out is not cmd_at_robot:
                cmd_at_robot = plc_out
                trace.add(t, "bus", "cmd_deliver", _hash12(cmd_at_robot))
            if robot_out is not fb_at_plc:
                fb_at_plc, plc_fb = robot_out, robot_fb
                trace.add(t, "bus", "fb_deliver", _hash12(fb_at_plc))
            next_bus += config.bus_cycle_us
        if next_robot == t:
            try:
                out = executor.tick(t, cmd_at_robot)
            except Exception as e:
                trace.add(t, "robot", "error", f"{type(e).__name__}: {e}")
                raise
            if out is not robot_out:
                robot_out, robot_fb = out, decode_feedback_frame(out)
                trace.add(t, "robot", "fb", _fb_summary(robot_fb, _hash12(out)))
            next_robot += config.robot_cycle_us

    return SimResult(trace=trace, finished_at_us=finished_at)
