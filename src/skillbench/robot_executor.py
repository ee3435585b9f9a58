"""Robot side of the skill protocol.

Two executors share one motion engine and one cyclic task:

* ``RobotExecutor`` consumes the cyclic 256-byte command image, validates
  and ingests records as the PLC streams them through the five slots, and
  reports progress through the feedback image.
* ``NativeExecutor`` holds whole motion plans locally (the classic "program
  stored on the robot controller" setup), as the records
  ``stored_records`` builds from them, and only uses the bus for a
  START/DONE handshake.

Both decode only the header of a new command image, and both fault with
ERROR code 1 on an image that does not decode.  They share one command
handler and one cycle: START, ABORT and IDLE mean the same on both, and
each executor supplies only how a START word loads its records (the newly
loaded slots of the image, or the stored program).  Either way the records
reach the engine in one ``_MotionEngine.ingest`` call per load, which joins
each continuation record with the target record that completes it into one
physical motion.

The engine keeps time by the ``t_us`` its ticks carry, which is the
co-simulation's clock; the executors hold no cycle length of their own.  A
motion of duration d activated at the tick at t ends at t + d and
completes at the first tick at or after that time, so the robot's tick
grid alone rounds it up to whole robot cycles: ceil(d / cycle) ticks on a
grid of that cycle.  Zero-duration motions complete within their
activation tick.  Exit speeds are committed at activation time from the
records visible at that moment and are never revised afterwards: when the
successor record has not arrived yet, the motion plans a full stop (a
starvation fallback), even if the record shows up before the motion ends.
Timing comes from ``trajectory``: ``corner_blend`` at ingest, and
``solve_corners`` over the visible Cartesian window up to its first exact
stop, which also hands over the straight seconds of each segment it
timed.  Nothing after an exact stop can change a speed or a blend before
it, so a motion that ends at one and starts a window needs no solve.  A
motion's duration is those seconds plus its exit arc's, or
``motion_time`` where the solver did not time its segment.  A plan's
blend decisions are final.  Later activations reuse the plan until a
record arrives whose corner blends onto the plan's end; the plan then
keeps only the corners up to its last exact stop.  So a stored program is
planned once per run of blended corners.

An executor is two methods: ``tick(t_us, cmd_bytes)`` returns the
feedback image, and ``next_wakeup()`` gives the µs from the last tick to
the earliest time at which a tick with the same command image can change
anything.  That is the end of the active motion, or 1 µs (the next robot
cycle) while a starved executor counts hungry cycles towards its fault.
The co-simulation leaves out the robot ticks before it, and they owe the
executor nothing: a motion ends by the clock, not by ticks counted.
"""

from __future__ import annotations

import math

from .trajectory import corner_blend, motion_time, ptp_time, solve_corners
from .wire import (
    SLOT_COUNT,
    CommandHeader,
    CommandWord,
    DecodeError,
    IDLE_FEEDBACK_BYTES,
    MalformedContinuation,
    MalformedRecord,
    MotionRecord,
    RobotState,
    UnencodableValue,
    WireError,
    _check_f32,
    _pack_feedback,
    decode_command_header,
    decode_record,
    explode_plan,
    pack_feedback_frame,
    slot_image,
)

ERROR_RECORD = 1  # malformed or out-of-sequence record / frame
ERROR_STARVATION = 2  # record supply stalled beyond the starvation limit

# enum members bound once: a module global loads faster than an enum
# attribute on the per-tick path
_IDLE, _RUNNING, _DONE, _ERROR, _ABORTING = (
    RobotState.IDLE,
    RobotState.RUNNING,
    RobotState.DONE,
    RobotState.ERROR,
    RobotState.ABORTING,
)
_START, _ABORT, _IDLE_WORD = CommandWord.START, CommandWord.ABORT, CommandWord.IDLE

# (state, error, curExec, acked frame_seq, pose) of IDLE_FEEDBACK_BYTES
_IDLE_FEEDBACK_FIELDS = (_IDLE, 0, 0, 0, (0.0,) * 6)


class _MotionEngine:
    """Execution on the robot's clock over a growing list of physical motions.

    Wire records arrive in runs through ``ingest``; each physical motion
    is kept as a ``(record, first_index, n_records)`` tuple, whose record is
    the one carrying the target and the dynamics.  The entry speed and entry
    truncation of the next motion are whatever the previous motion
    committed as its exit; both start at zero for a fresh skill.  Each
    ingested motion adds its path length, velocity and acceleration and
    the ``corner_blend`` of the corner it closes.  An activation outside
    the stored plan solves the visible Cartesian window up to its first
    exact stop with ``solve_corners``, and a blend dropped there stays
    dropped; one whose motion ends at an exact stop solves nothing.  A
    record whose corner blends onto the plan's end cuts the plan back to
    its last exact stop; one whose corner stops leaves the plan whole.
    Each activation takes its motion's straight seconds from the plan, adds
    the exit arc's seconds (or calls ``motion_time`` where the solve left
    the straight untimed, or no plan covers the motion), rounds the sum up
    to whole µs and stores when it ends; ``advance(t_us)`` completes it at
    the first tick at or after that end.
    ``fallback_stops`` counts activations that had to commit an exact stop
    because the successor record was not visible yet (cumulative over the
    engine's lifetime).  A completed motion's target tuple becomes the pose
    (or the joints) as it is, uncopied.  The joints start at zero.
    """

    def __init__(self, pose):
        self.pose = tuple(float(v) for v in pose)
        self.joints = (0.0,) * 6
        self.fallback_stops = 0
        self.captured: list | None = None  # (first_record, n_records, target, dur_us)
        self.begin_skill(0)

    def begin_skill(self, total_records: int):
        self._motions: list[tuple] = []  # (record, first_index, n_records)
        self._pending: MotionRecord | None = None  # continuation awaiting its target
        self._lengths: list[float] = []  # path length per motion, 0 for joint moves
        self._vmaxes: list[float] = []  # velocity per motion
        self._accels: list[float] = []  # acceleration per motion
        self._corners: list = []  # candidate blend into the following motion
        self._approach = None  # (point before, end point) of the last Cartesian leg
        self._next = 0
        # (end_us, dur_us, motion, end pose, end joints, exit speed, exit trunc)
        self._active = None
        # (first, end, speeds, blends, straight) over _motions[first:end]
        self._plan = None
        self._entry_speed = 0.0
        self._entry_trunc = 0.0
        self.total_records = total_records
        self.completed_records = 0

    def ingest(self, records, first_idx: int):
        """Add ``records``, wire records ``first_idx`` (1-based) on of the
        skill.  A continuation record waits for the target record that
        completes it, and the pair is one physical motion.  Raises
        MalformedContinuation when the next record does not complete a
        continuation, or the skill ends on one, and MalformedRecord when a
        record's velocity or acceleration is not positive or its approx
        distance is negative."""
        motions, lengths, corners = self._motions, self._lengths, self._corners
        vmaxes, accels = self._vmaxes, self._accels
        aux, approach, plan = self._pending, self._approach, self._plan
        am = motions[-1][0] if motions else None  # the last motion's record
        for idx, rec in enumerate(records, first_idx):
            v, a = rec.velocity, rec.acceleration
            if not (v > 0.0 and a > 0.0 and rec.approx_distance >= 0.0):
                raise MalformedRecord(f"record {idx}: dynamics out of range")
            if aux is not None:
                if rec.continuation or rec.motion_type is not aux.motion_type:
                    raise MalformedContinuation("continuation without matching target")
            elif rec.continuation:
                if idx == self.total_records:
                    raise MalformedContinuation("skill ends on a continuation record")
                aux = rec
                continue
            length = 0.0
            if not rec.joint_target:
                # the legs run p -> q, or p -> aux point -> q for a circular pair
                p = self.pose[:3] if approach is None else approach[1]
                q = rec.target[:3]
                if aux is None:
                    first_end, last_start = q, p
                    length = math.dist(p, q)
                else:
                    first_end = last_start = aux.target[:3]
                    length = math.dist(p, first_end) + math.dist(first_end, q)
                if am is not None and not am.joint_target:
                    corners[-1] = corner_blend(
                        approach[0], p, first_end, am.approx_distance, lengths[-1], length,
                        am.velocity, v, am.acceleration, a,
                    )
                    if corners[-1] is not None and plan is not None and plan[1] == len(motions):
                        # the window grows past the plan's end; corners up to
                        # its last stop are decoupled from the new ones and
                        # keep their plan
                        speeds = plan[2]
                        stop = len(speeds) - 2
                        while stop > 0 and speeds[stop] != 0.0:
                            stop -= 1
                        self._plan = (plan[0], plan[0] + stop, *plan[2:]) if stop else None
                approach = (last_start, q)
            motions.append((rec, idx, 1) if aux is None else (rec, idx - 1, 2))
            lengths.append(length)
            vmaxes.append(v)
            accels.append(a)
            corners.append(None)
            am = rec
            aux = None
        self._pending, self._approach = aux, approach

    def discard_motion(self):
        self._active = None
        self._plan = None
        self._entry_speed = 0.0
        self._entry_trunc = 0.0

    def _complete(self):
        _end, dur_us, (rec, first, n), end_pose, end_joints, exit_speed, exit_trunc = self._active
        self.pose = end_pose
        self.joints = end_joints
        self.completed_records += n
        self._entry_speed = exit_speed
        self._entry_trunc = exit_trunc
        self._active = None
        self._next += 1
        if self.captured is not None:
            self.captured.append((first, n, rec.target, dur_us))

    def _activate(self, t_us: int):
        k = self._next
        motions = self._motions
        motion = motions[k]
        rec, idx, n = motion
        if rec.joint_target:
            # corners never blend into or out of a joint motion, so the
            # committed entry speed here is always zero; the TCP pose is held
            deltas = [t - c for t, c in zip(rec.target, self.joints)]
            seconds = ptp_time(deltas, rec.velocity, rec.acceleration)
            end_pose, end_joints = self.pose, rec.target
            exit_speed = exit_trunc = 0.0
        else:
            if k + 1 == len(motions) and idx + n <= self.total_records:
                # successor exists but has not arrived: commit an exact stop
                self.fallback_stops += 1
            plan = self._plan
            if plan is not None and plan[0] <= k < plan[1]:
                first, _end, speeds, blends, straight = plan
                j = k - first
                exit_speed = speeds[j + 1]
                b = blends[j + 1]
                seconds = straight[j]
            elif self._corners[k] is None:
                # an exact stop ends the window at this motion: nothing to solve
                exit_speed = 0.0
                b = seconds = None
            else:
                # plan the visible Cartesian window up to its first exact
                # stop, which decouples it from the corners after it
                corners = self._corners
                end = k + 1
                while end < len(motions) and corners[end - 1] is not None:
                    end += 1
                speeds, blends, straight = solve_corners(
                    self._lengths[k:end],
                    self._vmaxes[k:end],
                    self._accels[k:end],
                    [None, *corners[k : end - 1], None],
                    self._entry_speed,
                    self._entry_trunc,
                )
                # a later solve must not revive a blend dropped here:
                # dropping only newer corners then restores this plan
                corners[k : end - 1] = blends[1:-1]
                self._plan = (k, end, speeds, blends, straight)
                exit_speed = speeds[1]
                b = blends[1]
                seconds = straight[0]
            if seconds is None:
                # no round of the solve timed this segment at these speeds
                s, arc = motion_time(
                    self._lengths[k], rec.velocity, rec.acceleration,
                    self._entry_speed, exit_speed, self._entry_trunc, b,
                )
                seconds = s + arc
            elif b is not None and b.arc_length > 0.0:
                seconds += b.arc_length / exit_speed
            exit_trunc = b.truncation if b is not None else 0.0
            end_pose, end_joints = rec.target, self.joints
        dur_us = math.ceil(seconds * 1e6 - 1e-12)
        if dur_us < 0:
            dur_us = 0
        self._active = (
            t_us + dur_us, dur_us, motion, end_pose, end_joints, exit_speed, exit_trunc
        )

    def advance(self, t_us: int) -> bool:
        """The robot cycle at ``t_us``: completes the active motion if it
        ended by then and activates the next ones.  False means starved:
        nothing ran and the next record is missing."""
        progressed = False
        if self._active is not None and self._active[0] <= t_us:
            self._complete()
            progressed = True
        while self._active is None and self._next < len(self._motions):
            self._activate(t_us)
            if self._active[1] == 0:
                self._complete()
                progressed = True
            else:
                break
        return (
            self._active is not None
            or progressed
            or self.completed_records >= self.total_records
        )

    @property
    def end_us(self) -> int | None:
        """When the active motion ends; None when no motion is active."""
        return None if self._active is None else self._active[0]


class _CyclicExecutor:
    """The robot task around a motion engine, shared by both executors.

    ``tick`` applies a new command image (compared by object identity, so
    an unchanged image costs nothing), runs one cycle and returns the
    feedback image, encoding it only when one of its fields changed.  Only
    the header of a new image is decoded, and one command handler applies
    it for both executors; a subclass supplies only how a START word loads
    its records, in ``_load(header, data, fresh)``: a new skill when
    ``fresh``, else a changed image of the running one.  An image that
    fails to decode, or that breaks the protocol there, faults the
    executor: state ERROR with code 1, until an IDLE command word clears
    it.  Starvation beyond ``_starvation_limit`` consecutive hungry cycles,
    where a limit is set, faults it with code 2.

    The executor also tells the simulator when the next tick is due
    (``next_wakeup``).  A tick left out before it, with an unchanged
    command image, would change nothing: the active motion ends by the
    clock, and a starved executor that counts towards a limit asks for
    every robot cycle.
    """

    _starvation_limit: int | None = None

    def __init__(self, initial_pose, capture: bool):
        self._engine = _MotionEngine(initial_pose)
        if capture:
            self._engine.captured = []
        self._last_tick_us = 0
        self._state = _IDLE
        self._error = 0
        self._total = 0
        self._acked = 0
        self._hungry = 0
        self._cmd_obj: bytes | None = None
        self._fb_fields = _IDLE_FEEDBACK_FIELDS
        self._fb_bytes = IDLE_FEEDBACK_BYTES
        # every later pose is a record target decoded off the wire, so a
        # pose checked once here needs no check per image; an initial pose
        # out of f32 range keeps the checking packer, which raises as
        # ``encode_feedback_frame`` does
        try:
            _check_f32(self._engine.pose, "pose component")
            self._pack = _pack_feedback
        except UnencodableValue:
            self._pack = pack_feedback_frame

    @property
    def state(self) -> RobotState:
        return self._state

    @property
    def pose(self) -> tuple:
        return self._engine.pose

    @property
    def fallback_stops(self) -> int:
        return self._engine.fallback_stops

    @property
    def executed(self) -> list:
        """Captured (first_record, n_records, target, duration_us) tuples."""
        if self._engine.captured is None:
            raise RuntimeError("executor built without capture=True")
        return self._engine.captured

    def _fail(self, code: int):
        self._state = _ERROR
        self._error = code
        self._engine.discard_motion()

    def _apply_frame(self, header: CommandHeader, data: bytes):
        # START goes straight to RUNNING, so LOADING is never published
        st = self._state
        command = header.command
        if command is _START:
            if st is _IDLE:
                self._hungry = 0
                self._load(header, data, True)
                self._state = _RUNNING
            elif st is _RUNNING:
                self._load(header, data, False)
        elif st is _RUNNING or (st is _DONE and command is _ABORT):
            # aborted, or START withdrawn mid-skill: stop gracefully
            self._engine.discard_motion()
            self._state = _ABORTING
        elif command is _IDLE_WORD:
            # DONE, ERROR and ABORTING return to IDLE
            self._state = _IDLE
            self._error = 0
        self._acked = header.frame_seq

    def tick(self, t_us: int, cmd_bytes: bytes) -> bytes:
        self._last_tick_us = t_us
        if cmd_bytes is not self._cmd_obj:
            self._cmd_obj = cmd_bytes
            try:
                self._apply_frame(decode_command_header(cmd_bytes), cmd_bytes)
            except WireError:
                self._fail(ERROR_RECORD)
        engine = self._engine
        if self._state is _RUNNING:
            progressed = engine.advance(t_us)
            if engine.completed_records >= engine.total_records:
                self._state = _DONE
                self._hungry = 0
            elif progressed:
                self._hungry = 0
            elif self._starvation_limit is not None:
                self._hungry += 1
                if self._hungry >= self._starvation_limit:
                    self._fail(ERROR_STARVATION)
        st = self._state
        if st is _RUNNING or st is _DONE:
            cur = engine.completed_records + 1
            if self._total < cur:
                cur = self._total
        elif st is _ERROR:
            cur = self._fb_fields[2]  # curExec as last reported
        else:
            cur = 0
        fields = (st, self._error, cur, self._acked, engine.pose)
        if fields != self._fb_fields:
            # a pack that raises leaves the last published image and its
            # fields, so the next tick packs, and raises, again
            self._fb_bytes = self._pack(*fields)
            self._fb_fields = fields
        return self._fb_bytes

    def next_wakeup(self) -> int | None:
        """µs from the last tick to the earliest time at which a tick with
        the same command image can change anything: the end of the active
        motion, else 1 (the next robot cycle) while a starvation limit
        counts hungry cycles.  None when no such tick exists (IDLE, DONE,
        ERROR, ABORTING, or a starved executor without a limit)."""
        if self._state is not _RUNNING:
            return None
        end = self._engine.end_us
        if end is not None:
            return end - self._last_tick_us
        return None if self._starvation_limit is None else 1


class RobotExecutor(_CyclicExecutor):
    """Streaming skill executor driven by the cyclic command image.

    Each new command image streams in the records it loaded beyond the
    last one ingested, decoding only their slots.  Record errors surface
    as feedback state ERROR with code 1, starvation beyond
    ``starvation_limit`` consecutive hungry cycles as code 2.
    """

    def __init__(
        self,
        initial_pose=(0.0,) * 6,
        starvation_limit: int = 250,
        capture: bool = False,
    ):
        super().__init__(initial_pose, capture)
        self._starvation_limit = starvation_limit
        self._known = 0  # highest record index ingested

    def _load(self, header: CommandHeader, data: bytes, fresh: bool):
        loaded = header.loaded_through
        if fresh:
            if loaded > SLOT_COUNT:
                raise DecodeError(f"initial load of {loaded} exceeds the slot window")
            self._total = header.total_no
            self._known = 0
            self._engine.begin_skill(header.total_no)
        elif header.total_no != self._total:
            raise DecodeError(f"totalNo changed mid-skill: {self._total} -> {header.total_no}")
        elif loaded < self._known:
            raise DecodeError(f"loadedThrough regressed: {self._known} -> {loaded}")
        records = []
        for idx in range(self._known + 1, loaded + 1):
            rec = decode_record(slot_image(data, idx))
            if rec.record_seq != idx % 0x10000:
                raise DecodeError(
                    f"record {idx}: sequence {rec.record_seq}, expected {idx % 0x10000}"
                )
            records.append(rec)
        self._engine.ingest(records, self._known + 1)
        self._known = loaded


def stored_records(plans) -> tuple[MotionRecord, ...]:
    """The program a ``NativeExecutor`` stores for ``plans``: each plan's
    records as the wire delivers them, back to back.  ``explode_plan``
    unpacks them from the plan image that ``encode_plan`` cuts into record
    images.  Raises ``UnencodableValue`` for a plan the wire cannot
    carry."""
    return tuple(rec for p in plans for rec in explode_plan(p.motions))


class NativeExecutor(_CyclicExecutor):
    """Robot-resident motion program with a bus-level START/DONE handshake.

    Takes the same continuous plans the streaming path would receive and
    runs them back to back; the exact stop between groups comes from the
    final motion of each group carrying approx 0.  Construction from plans
    explodes them (``stored_records``), so both executors work from the
    records the wire would deliver, unpacked from the same plan image the
    PLC's skills are cut from, and a plan the wire cannot carry raises
    ``UnencodableValue`` there.  ``from_records`` builds the executor from
    a tuple that ``stored_records`` made earlier, so a program run many
    times is exploded once.  Only the command word and frame_seq of the
    command image matter here: totalNo and loadedThrough are ignored, and
    START ingests the whole stored program.
    """

    def __init__(self, plans, initial_pose=(0.0,) * 6, capture: bool = False):
        self._hold(stored_records(plans), initial_pose, capture)

    @classmethod
    def from_records(cls, records, initial_pose=(0.0,) * 6, capture: bool = False):
        """An executor storing ``records``, the result of ``stored_records``."""
        executor = cls.__new__(cls)
        executor._hold(records, initial_pose, capture)
        return executor

    def _hold(self, records, initial_pose, capture):
        super().__init__(initial_pose, capture)
        self._records = tuple(records)
        self._total = len(self._records)

    def _load(self, header: CommandHeader, data: bytes, fresh: bool):
        if fresh:
            self._engine.begin_skill(self._total)
            # one consecutive numbering across the plans
            self._engine.ingest(self._records, 1)
