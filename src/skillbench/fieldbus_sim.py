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

Frames travel as immutable ``bytes`` objects (``run`` raises TypeError at
publish for anything else).  The loop decodes each image once, at publish,
so a malformed one raises at the tick that published it.  A command header
is decoded only to check it; a ``FeedbackFrame`` is delivered to the PLC,
as a fieldbus driver maps its input image onto a PLC's typed inputs, and
kept only until the next one.  The robot gets the command bytes and
decodes only what changed: it compares them by object identity and
decodes the header and the newly loaded slots.  The trace names each frame
by the first 12 hex digits of its SHA-256, but the run does neither hash
nor format, and keeps no decoding: its trace holds each published frame by
reference, and a delivery holds that very object.  Lines are made when the
trace is read, decoding each published frame again and hashing each
distinct frame once.
The loop is event driven: a task runs only at the grid points where one of
its inputs changed or a wakeup it asked for is due, and the run is the one
that ticking every task at every point of its grid would produce, trace
line for trace line.  When each task is due:

* the PLC at its first grid point and at the first PLC grid point after
  each feedback delivery, a rule the loop alone owns: the program's one
  contract is that a ``plc_tick`` reaches the fixed point of its feedback,
  its time argument feeding only timestamps;
* the robot at its first grid point, at the first robot grid point at or
  after each command delivery, and, after its tick at ``t``, at the first
  robot grid point after ``t`` that is at or after
  ``executor.next_wakeup()``: the earliest time (µs) at which a tick with
  the same command image can change anything, or None for never.  The
  executor keeps time by the ``t_us`` of its ticks, so this grid alone
  rounds each motion up to whole robot cycles, and
  ``SimConfig.robot_cycle_us`` is the one robot cycle;
* the bus runs at the first bus grid point at or after a PLC publish and
  strictly after a robot publish; it has nothing else to do.

The first grid point at or after u >= 0 of a grid with cycle c and phase
0 <= p < c is ``u + (p - u) % c``.  That expression is the one definition
of the rule: ``run`` computes each wake with it inline, and
``_timeout_at`` the grid point that stamps a timeout.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .wire import (
    IDLE_COMMAND_BYTES,
    IDLE_FEEDBACK_BYTES,
    CommandHeader,
    FeedbackFrame,
    decode_command_header,
    decode_feedback_frame,
)


# what the PLC sees before the robot's first image arrives
_IDLE_FEEDBACK = decode_feedback_frame(IDLE_FEEDBACK_BYTES)


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
        # a float would print in the trace and a bool run a 1 µs cycle, so
        # each time (a ``_us`` field) is a positive plain int.  ``rep_seed``
        # masks the seed and the rep, so any int will do there, but a float
        # fails the mask
        for name in (
            "plc_cycle_us", "bus_cycle_us", "robot_cycle_us", "timeout_us", "seed", "rep"
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value <= 0 and name.endswith("_us"):
                raise ValueError(f"{name} must be positive")


def rep_seed(seed: int, rep: int) -> int:
    """Per-repetition child seed; stable across execution types for pairing."""
    return (seed * 1_000_000_007 + rep) & 0xFFFFFFFF


def _hash12(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


class TraceEvent(NamedTuple):
    t_us: int
    source: str
    kind: str
    detail: str


@dataclass(eq=False)
class SimTrace:
    """The events of one run, compared by content.

    ``log`` holds one ``(t_us, source, kind, detail, frame)`` tuple per event.
    ``frame`` is None for a text event, whose ``detail`` is its text.  A frame
    event holds the published ``bytes`` object itself and a ``detail`` of
    None.  Detail texts are made when the trace is read, each once: a ``cmd``
    shows its decoded header, an ``fb`` its decoded frame and a delivery the
    hash alone.  Each distinct frame is hashed once.  A logged frame passed
    its decode at publish, so decoding it again cannot raise.  The log keeps
    every frame alive, so frames are told apart by ``id``.
    """

    log: list = field(default_factory=list)
    _details: list = field(default_factory=list, init=False, repr=False)
    _hashes: dict = field(default_factory=dict, init=False, repr=False)

    def add(self, t_us: int, source: str, kind: str, detail: str):
        self.log.append((t_us, source, kind, detail, None))

    def _detail_texts(self) -> list[str]:
        details, hashes = self._details, self._hashes
        for _, _, kind, detail, frame in self.log[len(details) :]:
            if frame is not None:
                digest = hashes.get(id(frame))
                if digest is None:
                    digest = hashes[id(frame)] = _hash12(frame)
                if kind == "cmd":
                    detail = _cmd_summary(decode_command_header(frame), digest)
                elif kind == "fb":
                    detail = _fb_summary(decode_feedback_frame(frame), digest)
                else:
                    detail = digest
            details.append(detail)
        return details

    @property
    def events(self) -> list[TraceEvent]:
        return [
            TraceEvent(t_us, source, kind, detail)
            for (t_us, source, kind, _, _), detail in zip(self.log, self._detail_texts())
        ]

    def __eq__(self, other):
        if not isinstance(other, SimTrace):
            return NotImplemented
        return self.events == other.events

    def export_text(self) -> str:
        lines = [
            f"{t_us:>12} {source:<5} {kind:<12} {detail}"
            for (t_us, source, kind, _, _), detail in zip(self.log, self._detail_texts())
        ]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.export_text().encode()).hexdigest()


@dataclass
class SimResult:
    trace: SimTrace
    finished_at_us: int


def _cmd_summary(header: CommandHeader, digest: str) -> str:
    """Trace text of a published command image: its decoded header and its
    ``_hash12``."""
    word, count, total, loaded, seq = header
    return f"word={word.name} count={count} total={total} loaded={loaded} seq={seq} {digest}"


def _fb_summary(f: FeedbackFrame, digest: str) -> str:
    """Trace text of a published feedback image: its decoded frame and its
    ``_hash12``."""
    return f"state={f.state.name} cur={f.cur_exec} err={f.error_code} {digest}"


def _timeout_at(timeout_us: int, grids) -> int:
    """First grid point of any task after ``timeout_us``, over the
    ``(phase, cycle)`` of each task's grid."""
    u = timeout_us + 1
    return min(u + (phase - u) % cycle for phase, cycle in grids)


def run(program, executor, config: SimConfig = SimConfig()) -> SimResult:
    """Run the co-simulation until the program finishes.

    ``program`` supplies ``plc_tick(t_us, fb: FeedbackFrame) -> bytes``
    and the ``finished``, ``t_start_us`` and ``t_end_us`` attributes;
    ``executor`` supplies ``tick(t_us, cmd_bytes) -> bytes`` and
    ``next_wakeup()`` (module docstring).  Both are called through the
    instance at each grid point where their task is due.  The loop decodes
    each image once, when it is published: a command image only to check
    it, a feedback image for the PLC, which gets that frame (the decoded
    IDLE image until the first delivery).  The
    executor's ticks land on the robot grid of ``config``, so a motion of
    d µs that starts at a tick ends at the first robot grid point at or
    after d µs later.  Both ticks must return ``bytes``; anything else
    raises TypeError when it is published.
    Raises SimTimeout at the first grid point of any task after
    ``timeout_us`` and lets program/executor exceptions propagate after
    recording them.
    """
    plc_cycle, bus_cycle, robot_cycle = (
        config.plc_cycle_us,
        config.bus_cycle_us,
        config.robot_cycle_us,
    )
    timeout_us = config.timeout_us
    rng = random.Random(rep_seed(config.seed, config.rep))
    phase_plc = rng.randrange(plc_cycle)
    phase_bus = rng.randrange(bus_cycle)
    phase_robot = rng.randrange(robot_cycle)
    next_wakeup = executor.next_wakeup

    trace = SimTrace()
    trace.add(0, "sim", "phases", f"plc={phase_plc} bus={phase_bus} robot={phase_robot}")
    log = trace.log.append

    # published and delivered images, all by reference.  A feedback image
    # travels as the frame decoded at its publish: each publish decodes a
    # new frame, so the frame's identity marks a new image as the bytes'
    # does, and the PLC keeps only the frame delivered last
    plc_out = IDLE_COMMAND_BYTES
    robot_out = IDLE_FEEDBACK_BYTES
    cmd_at_robot = IDLE_COMMAND_BYTES
    robot_fb = plc_fb = _IDLE_FEEDBACK

    # the next grid point at which each task is due, ``never`` when it
    # waits for an input: past the timeout, so a run with every task
    # waiting times out; every task runs at its first grid point.  Each
    # ``u + (phase - u) % cycle`` below is the first grid point at or after
    # u (module docstring)
    never = timeout_us + 1
    plc_due = phase_plc
    bus_due = never
    robot_due = phase_robot

    while True:
        t = bus_due if bus_due < plc_due else plc_due
        if robot_due < t:
            t = robot_due
        if t > timeout_us:
            grids = ((phase_plc, plc_cycle), (phase_bus, bus_cycle), (phase_robot, robot_cycle))
            trace.add(_timeout_at(timeout_us, grids), "sim", "timeout", f"after {timeout_us} us")
            raise SimTimeout(f"no completion within {timeout_us} us")
        # tie order: PLC before bus before robot
        if plc_due == t:
            try:
                out = program.plc_tick(t, plc_fb)
            except Exception as e:
                trace.add(t, "plc", "error", f"{type(e).__name__}: {e}")
                raise
            if out is not plc_out:
                if not isinstance(out, bytes):
                    raise TypeError(
                        f"program.plc_tick returned {type(out).__name__}, not bytes"
                    )
                decode_command_header(out)  # a malformed image raises here
                log((t, "plc", "cmd", None, out))
                plc_out = out
                due = t + (phase_bus - t) % bus_cycle
                if due < bus_due:
                    bus_due = due
            if program.t_start_us == t:
                trace.add(t, "plc", "measure", "start")
            if program.t_end_us == t:
                trace.add(t, "plc", "measure", "end")
            if program.finished:
                trace.add(t, "sim", "finished", f"t={t}")
                return SimResult(trace=trace, finished_at_us=t)
            plc_due = never
        if bus_due == t:
            # one atomic exchange of both directions
            if plc_out is not cmd_at_robot:
                cmd_at_robot = plc_out
                log((t, "bus", "cmd_deliver", None, plc_out))
                due = t + (phase_robot - t) % robot_cycle
                if due < robot_due:
                    robot_due = due
            if robot_fb is not plc_fb:
                plc_fb = robot_fb
                log((t, "bus", "fb_deliver", None, robot_out))
                due = t + 1 + (phase_plc - t - 1) % plc_cycle
                if due < plc_due:
                    plc_due = due
            bus_due = never
        if robot_due == t:
            try:
                out = executor.tick(t, cmd_at_robot)
            except Exception as e:
                trace.add(t, "robot", "error", f"{type(e).__name__}: {e}")
                raise
            if out is not robot_out:
                if not isinstance(out, bytes):
                    raise TypeError(
                        f"executor.tick returned {type(out).__name__}, not bytes"
                    )
                robot_fb = decode_feedback_frame(out)
                log((t, "robot", "fb", None, out))
                robot_out = out
                due = t + 1 + (phase_bus - t - 1) % bus_cycle
                if due < bus_due:
                    bus_due = due
            due = next_wakeup()
            if due is None:
                robot_due = never
            else:
                if due <= t:
                    due = t + 1
                robot_due = due + (phase_robot - due) % robot_cycle
