"""Helpers for the streaming protocol tests, which run through
``fieldbus_sim.run``.

``check_window`` replays a finished run's trace through ``SlotMonitor``,
``native_baseline`` is the direct-handoff oracle, ``random_motions``
draws short-leg skills of an exact record count, and ``f32`` rounds a
number as the wire's float fields do.
"""

import math
import random
import struct

from skillbench.core import JointTarget, MotionCommand, MotionType, Pose
from skillbench.fieldbus_sim import SimTrace, run
from skillbench.plc_trigger import NativeTriggerProgram
from skillbench.robot_executor import NativeExecutor
from skillbench.wire import (
    SLOT_COUNT,
    CommandWord,
    IDLE_FEEDBACK_BYTES,
    decode_command_header,
    decode_feedback_frame,
    decode_record,
    encode_record,
    slot_for_record,
    slot_image,
)

ORIGIN = Pose(0.0, 0.0, 0.0)


class WindowViolation(AssertionError):
    pass


class SlotMonitor:
    """Checks FIFO window safety on every command image the PLC publishes.

    Rules, per published frame, against the curExec of the feedback the PLC
    consumed:
      - a slot holding record k is only rewritten once curExec > k.  A
        started skill holds every slot and loads its records in order, so
        the slot of record m > SLOT_COUNT holds m - SLOT_COUNT: this rule
        also keeps every new record within curExec + SLOT_COUNT - 1
      - each newly written slot holds its record's record_seq
      - loadedThrough is monotone, totalNo constant within a skill
      - frame_seq advances by exactly 1 per changed image
    """

    def __init__(self):
        self.held: list[int | None] = [None] * SLOT_COUNT
        self.last_loaded = 0
        self.last_seq: int | None = None
        self.total: int | None = None
        self.frames_seen = 0

    def on_command(self, cmd_bytes: bytes, cur_exec: int):
        """Check command image ``cmd_bytes``, published while the PLC held
        feedback at ``cur_exec``."""
        word, _count, total, loaded, seq = decode_command_header(cmd_bytes)
        self.frames_seen += 1
        if self.last_seq is not None and seq != (self.last_seq + 1) % 0x10000:
            raise WindowViolation(f"frame_seq jumped {self.last_seq} -> {seq}")
        self.last_seq = seq
        if word is not CommandWord.START:
            # IDLE / ABORT frames carry no queue content
            self.held = [None] * SLOT_COUNT
            self.last_loaded = 0
            self.total = None
            return
        if self.total is None:  # new skill
            self.held = [None] * SLOT_COUNT
            if loaded != min(SLOT_COUNT, total):
                raise WindowViolation(f"initial load {loaded} of {total}")
            self.total = total
            self.last_loaded = 0
        elif total != self.total:
            raise WindowViolation("totalNo changed mid-skill")
        if loaded < self.last_loaded:
            raise WindowViolation("loadedThrough went backwards")
        for m in range(self.last_loaded + 1, loaded + 1):
            slot = slot_for_record(m)
            old = self.held[slot]
            if old is not None and cur_exec <= old:
                raise WindowViolation(
                    f"record {m} overwrote record {old} at curExec {cur_exec}"
                )
            rec = decode_record(slot_image(cmd_bytes, m))
            if rec.record_seq != m % 0x10000:
                raise WindowViolation(
                    f"slot {slot} holds seq {rec.record_seq}, expected record {m}"
                )
            self.held[slot] = m
        self.last_loaded = loaded


def check_window(trace: SimTrace) -> SlotMonitor:
    """Check every command image a run published against the feedback the
    PLC held when it published it; raises WindowViolation.  The trace holds
    each image by reference; each command header and each delivered
    feedback image is decoded once."""
    monitor = SlotMonitor()
    cur_exec = decode_feedback_frame(IDLE_FEEDBACK_BYTES).cur_exec
    for _t, _source, kind, _, frame in trace.log:
        if kind == "fb_deliver":
            cur_exec = decode_feedback_frame(frame).cur_exec
        elif kind == "cmd":
            monitor.on_command(frame, cur_exec)
    return monitor


def consumed(executor):
    """Captured record flow minus timing: (first_record, n_records, target)."""
    return [(first, n, target) for first, n, target, _dur in executor.executed]


def f32(x: float) -> float:
    """``x`` rounded through IEEE-754 single precision."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


def images(records):
    """The 44-byte images of ``records``: a skill as the PLC holds it."""
    return [encode_record(r) for r in records]


def native_baseline(plans, initial_pose=ORIGIN.components()):
    """Direct in-memory handoff oracle: same plans, no 5-slot window."""
    program = NativeTriggerProgram()
    executor = NativeExecutor(plans, initial_pose=initial_pose, capture=True)
    run(program, executor)
    return executor


def _unit(rng: random.Random):
    while True:
        v = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        if n > 1e-3:
            return (v[0] / n, v[1] / n, v[2] / n)


def random_motions(rng: random.Random, total_records: int):
    """Random motion list whose wire expansion is exactly total_records long.

    Legs are short (0.5..3 mm) and the dynamics fast so nearly every record
    costs one 4 ms robot cycle; positions chain so the executor's pose always
    matches the next motion's implied start.
    """
    vel, acc = 4000.0, 4.0e6
    motions: list[MotionCommand] = []
    pos = ORIGIN.position
    records = 0

    def hop(frm):
        d = _unit(rng)
        step = rng.uniform(0.5, 3.0)
        return (frm[0] + d[0] * step, frm[1] + d[1] * step, frm[2] + d[2] * step)

    while records < total_records:
        room = total_records - records
        roll = rng.random()
        approx = rng.uniform(0.05, 0.3) if rng.random() < 0.4 else 0.0
        if roll < 0.15 and room >= 2:
            aux = hop(pos)
            pos = hop(aux)
            motions.append(MotionCommand(
                motion_type=MotionType.CIRCULAR,
                target=Pose(*pos),
                velocity=vel,
                acceleration=acc,
                approx_distance=approx,
                aux_point=aux,
            ))
            records += 2
        elif roll < 0.30:
            motions.append(MotionCommand(
                motion_type=MotionType.PTP_JOINT,
                target=JointTarget(*(rng.uniform(-2.0, 2.0) for _ in range(6))),
                velocity=3000.0,
                acceleration=3.0e6,
            ))
            records += 1
        else:
            pos = hop(pos)
            mtype = MotionType.PTP_CARTESIAN if roll < 0.45 else MotionType.LIN_CARTESIAN
            motions.append(MotionCommand(
                motion_type=mtype,
                target=Pose(*pos),
                velocity=vel,
                acceleration=acc,
                approx_distance=approx,
            ))
            records += 1
    last = motions[-1]
    if last.approx_distance != 0.0:
        motions[-1] = MotionCommand(
            motion_type=last.motion_type,
            target=last.target,
            velocity=last.velocity,
            acceleration=last.acceleration,
            approx_distance=0.0,
            aux_point=last.aux_point,
        )
    return motions
