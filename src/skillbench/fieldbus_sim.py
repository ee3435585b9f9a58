"""Deterministic co-simulation of the PLC, fieldbus, and robot tasks.

Three tasks live on fixed grids of an integer microsecond clock:

* the PLC task (default 1 ms) runs the trigger program,
* the bus task (default 1 ms) atomically exchanges both 256-byte process
  images between the controllers,
* the robot task (default 4 ms) runs the motion executor.

When grid points coincide the PLC goes first, then the bus, then the
robot.  Each repetition draws one random phase offset per task (uniform
over the task's cycle, quantized to microseconds) from a seed derived from
(seed, rep); everything else is exact, so a run is reproducible bit for bit.

Frames travel as immutable ``bytes`` objects, and every receiver compares
by object identity before decoding.  The trace names each frame by the
first 12 hex digits of its SHA-256, computed once when the frame is
published: a delivery hands over that very object, so its trace line
reuses the hash.  The loop is event driven: a task runs
only at the grid points where one of its inputs changed or a wakeup it
asked for is due, and the run is the one that ticking every task at every
point of its grid would produce, trace line for trace line.  That rests on
what the program and executor report:

* after ``plc_tick``, a true ``program.quiescent`` means another tick with
  the same feedback bytes would change nothing, its time argument feeding
  only timestamps.  The PLC then waits for the next feedback delivery;
* after ``tick``, ``executor.next_wakeup()`` gives the number of robot
  cycles to the next tick that can change anything while the command image
  stays the same, or None.  Before a later tick the loop calls
  ``executor.skip_cycles(n)`` for the ``n`` robot grid points it left out;
* the bus runs at the first bus grid point at or after a PLC publish and
  strictly after a robot publish; it has nothing else to do.

A program without ``quiescent`` or an executor without ``next_wakeup`` is
ticked at every point of its grid.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .wire import (
    IDLE_COMMAND_BYTES,
    IDLE_FEEDBACK_BYTES,
    decode_command_header,
    decode_feedback_frame,
)


_NEVER = float("inf")


class SimTimeout(Exception):
    """The program did not finish within the simulated time budget."""


@dataclass(frozen=True)
class SimConfig:
    plc_cycle_us: int = 1000
    bus_cycle_us: int = 1000
    robot_cycle_us: int = 4000
    seed: int = 0
    rep: int = 0
    timeout_us: int = 120_000_000

    def __post_init__(self):
        for name in ("plc_cycle_us", "bus_cycle_us", "robot_cycle_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.timeout_us <= 0:
            raise ValueError("timeout_us must be positive")


def rep_seed(seed: int, rep: int) -> int:
    """Per-repetition child seed; stable across execution types for pairing."""
    return (seed * 1_000_000_007 + rep) & 0xFFFFFFFF


def _hash12(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


@dataclass(frozen=True)
class TraceEvent:
    t_us: int
    source: str
    kind: str
    detail: str


@dataclass
class SimTrace:
    events: list = field(default_factory=list)

    def add(self, t_us: int, source: str, kind: str, detail: str):
        self.events.append(TraceEvent(t_us, source, kind, detail))

    def export_text(self) -> str:
        lines = [
            f"{e.t_us:>12} {e.source:<5} {e.kind:<12} {e.detail}" for e in self.events
        ]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.export_text().encode()).hexdigest()


@dataclass
class SimResult:
    trace: SimTrace
    finished_at_us: int


def _cmd_summary(data: bytes, digest: str) -> str:
    """Trace text of a published command image whose ``_hash12`` is ``digest``."""
    word, count, total, loaded, seq = decode_command_header(data)
    return f"word={word.name} count={count} total={total} loaded={loaded} seq={seq} {digest}"


def _fb_summary(data: bytes, digest: str) -> str:
    """Trace text of a published feedback image whose ``_hash12`` is ``digest``."""
    f = decode_feedback_frame(data)
    return f"state={f.state.name} cur={f.cur_exec} err={f.error_code} {digest}"


def _at_or_after(t: int, phase: int, cycle: int) -> int:
    """First grid point ``phase + k * cycle`` (k >= 0) at or after ``t``."""
    if t <= phase:
        return phase
    return phase - (phase - t) // cycle * cycle


def _every_cycle() -> int:
    return 1


def run(program, executor, config: SimConfig = SimConfig()) -> SimResult:
    """Run the co-simulation until the program finishes.

    ``program`` supplies ``plc_tick(t_us, fb_bytes) -> bytes`` and the
    ``finished``, ``t_start_us`` and ``t_end_us`` attributes; ``executor``
    supplies ``tick(t_us, cmd_bytes) -> bytes``.  Both are called through
    the instance at each grid point where their task is due, and may report
    ``quiescent`` and ``next_wakeup``/``skip_cycles`` (module docstring) to
    be ticked less often.  Raises SimTimeout at the first grid point of any
    task after ``timeout_us`` and lets program/executor exceptions propagate
    after recording them.
    """
    plc_cycle, bus_cycle, robot_cycle = (
        config.plc_cycle_us,
        config.bus_cycle_us,
        config.robot_cycle_us,
    )
    rng = random.Random(rep_seed(config.seed, config.rep))
    phase_plc = rng.randrange(plc_cycle)
    phase_bus = rng.randrange(bus_cycle)
    phase_robot = rng.randrange(robot_cycle)
    timeout_at = min(
        _at_or_after(config.timeout_us + 1, phase, cycle)
        for phase, cycle in (
            (phase_plc, plc_cycle),
            (phase_bus, bus_cycle),
            (phase_robot, robot_cycle),
        )
    )
    next_wakeup = getattr(executor, "next_wakeup", _every_cycle)

    trace = SimTrace()
    trace.add(0, "sim", "phases", f"plc={phase_plc} bus={phase_bus} robot={phase_robot}")

    # published images with their hashes, and delivered images, all by
    # reference; a hash is set whenever its image is published, and the
    # idle images are never delivered
    plc_out = IDLE_COMMAND_BYTES
    robot_out = IDLE_FEEDBACK_BYTES
    plc_hash = robot_hash = None
    cmd_at_robot = IDLE_COMMAND_BYTES
    fb_at_plc = IDLE_FEEDBACK_BYTES

    # the next grid point at which each task is due, _NEVER when it waits
    # for an input; every task runs at its first grid point
    plc_due = phase_plc
    bus_due = _NEVER
    robot_due = phase_robot
    robot_last = phase_robot - robot_cycle

    while True:
        t = min(plc_due, bus_due, robot_due)
        if t > config.timeout_us:
            trace.add(timeout_at, "sim", "timeout", f"after {config.timeout_us} us")
            raise SimTimeout(f"no completion within {config.timeout_us} us")
        # tie order: PLC before bus before robot
        if plc_due == t:
            try:
                out = program.plc_tick(t, fb_at_plc)
            except Exception as e:
                trace.add(t, "plc", "error", f"{type(e).__name__}: {e}")
                raise
            if out is not plc_out:
                plc_out, plc_hash = out, _hash12(out)
                trace.add(t, "plc", "cmd", _cmd_summary(out, plc_hash))
                bus_due = min(bus_due, _at_or_after(t, phase_bus, bus_cycle))
            if program.t_start_us == t:
                trace.add(t, "plc", "measure", "start")
            if program.t_end_us == t:
                trace.add(t, "plc", "measure", "end")
            if program.finished:
                trace.add(t, "sim", "finished", f"t={t}")
                return SimResult(trace=trace, finished_at_us=t)
            plc_due = _NEVER if getattr(program, "quiescent", False) else t + plc_cycle
        if bus_due == t:
            # one atomic exchange of both directions
            if plc_out is not cmd_at_robot:
                cmd_at_robot = plc_out
                trace.add(t, "bus", "cmd_deliver", plc_hash)
                robot_due = min(robot_due, _at_or_after(t, phase_robot, robot_cycle))
            if robot_out is not fb_at_plc:
                fb_at_plc = robot_out
                trace.add(t, "bus", "fb_deliver", robot_hash)
                plc_due = min(plc_due, _at_or_after(t + 1, phase_plc, plc_cycle))
            bus_due = _NEVER
        if robot_due == t:
            skipped = (t - robot_last) // robot_cycle - 1
            if skipped:
                executor.skip_cycles(skipped)
            robot_last = t
            try:
                out = executor.tick(t, cmd_at_robot)
            except Exception as e:
                trace.add(t, "robot", "error", f"{type(e).__name__}: {e}")
                raise
            if out is not robot_out:
                robot_out, robot_hash = out, _hash12(out)
                trace.add(t, "robot", "fb", _fb_summary(out, robot_hash))
                bus_due = min(bus_due, _at_or_after(t + 1, phase_bus, bus_cycle))
            wake = next_wakeup()
            robot_due = _NEVER if wake is None else t + wake * robot_cycle
