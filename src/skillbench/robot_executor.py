"""Robot side of the skill protocol.

Two executors share one robot task, which takes in records and executes
them:

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
reach the task in one ``_ingest`` call per load, which joins each
continuation record with the target record that completes it into one
physical motion.

The task keeps time by the ``t_us`` its ticks carry, which is the
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
record arrives whose corner blends onto the plan's end; the plan is then
dropped whole, and the next activation solves again from the speed the
active motion commits.  So a stored program is planned once per run of
blended corners.  An executor solves without a cache unless its builder
hands it ``_solve_window``, the process-wide cache of the eight most
recently solved windows: ``bench`` does so for the repetitions of a
compiled setup, which meet the same windows again, and nothing else
meets a window twice.

An executor is two methods: ``tick(t_us, cmd_bytes)`` returns the
feedback image, and ``next_wakeup()`` gives the µs from the last tick to
the earliest time at which a tick with the same command image can change
anything.  That is the end of the active motion, or 1 µs (the next robot
cycle) while a hungry executor counts cycles towards its starvation fault.
The co-simulation leaves out the robot ticks before it, and they owe the
executor nothing: a motion ends by the clock, not by ticks counted.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
    WireError,
    _check_f32,
    _pack_feedback,
    decode_command_header,
    decode_record,
    explode_plan,
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
# (speed, truncation) of a motion entered or left at an exact stop
_AT_REST = (0.0, 0.0)


@lru_cache(maxsize=8)
def _solve_window(lengths, vmaxes, accels, blends, entry_speed, entry_trunc):
    """``solve_corners`` of one window, its speeds, blends and straight
    seconds each as a tuple, so that no executor can change another's plan.

    The eight most recently solved windows of the process are kept, and a
    solve that raises keeps nothing.  ``__wrapped__`` is the same solve
    without the cache, the one executors use by default: only the
    repetitions that ``bench`` builds from a compiled setup meet a window
    again.  The key is the whole argument tuple, the slices of the window
    as tuples.  It compares -0.0 equal to 0.0, but no executor hands in
    -0.0: lengths are sums of ``math.dist``, dynamics pass the check at
    ingest, a blend holds positive values or literal zeros, and the entry
    is a literal zero, a solved speed (a blend speed or a square root) or
    a blend's truncation.
    """
    speeds, blends, straight = solve_corners(
        lengths, vmaxes, accels, blends, entry_speed, entry_trunc
    )
    return tuple(speeds), tuple(blends), tuple(straight)


class _CyclicExecutor:
    """The robot task of both executors: it takes in records and executes
    them on the robot's clock.

    ``tick`` applies a new command image (compared by object identity, so
    an unchanged image costs nothing), runs one cycle and returns the
    feedback image, encoding it only when one of its fields changed.  Only
    the header of a new image is decoded, and one command handler applies
    it for both executors; a subclass supplies only how a START word loads
    its records, in ``_load(header, data, fresh)``: a new skill when
    ``fresh``, else a changed image of the running one.  An image that
    fails to decode, or that breaks the protocol there, faults the
    executor: state ERROR with code 1, until an IDLE command word clears
    it.  ``_starvation_limit`` consecutive hungry cycles fault it with code
    2 (a ``NativeExecutor``, whose START ingests its whole program, never
    hungers).  A fault or an abort
    leaves the skill's motions as they are: only RUNNING advances them,
    and the next skill begins with a fresh START, whose ``_load`` clears
    them (``_begin_skill``).

    Wire records arrive in runs through ``_ingest``; each physical motion
    is kept as a ``(record, first_index, n_records)`` tuple, whose record is
    the one carrying the target and the dynamics.  The entry speed and entry
    truncation of the next motion (``_entry``) are whatever the previous
    motion committed as its exit; both start at zero for a fresh skill.  Each
    ingested motion adds its path length, velocity and acceleration and
    the ``corner_blend`` of the corner it closes.  An activation outside
    the current plan solves the visible Cartesian window up to its first
    exact stop through ``_solve``, and a blend dropped there stays
    dropped; one whose motion ends at an exact stop solves nothing.
    ``_solve`` is ``_solve_window`` without its cache unless the builder
    set the cached one on the executor, as ``bench._build_run`` does.  A plan
    is kept whole or dropped: a record whose corner blends onto the plan's
    end drops it, one whose corner stops leaves it.  Each activation takes
    its motion's straight seconds from the plan, adds the exit arc's
    seconds (or calls ``motion_time`` where the solve left the straight
    untimed, or no plan covers the motion), rounds the sum up to whole µs
    and stores when it ends; ``_advance(t_us)`` completes it at the first
    tick at or after that end, the tick ``next_wakeup`` asks for.
    ``fallback_stops`` counts activations that had to commit an exact stop
    because the successor record was not visible yet (cumulative over the
    executor's lifetime).  A completed motion's target tuple becomes the
    pose (or the joints) as it is, uncopied.  The joints start at zero.
    The initial pose is checked once, when the executor is built, and one
    beyond the f32 range raises ``UnencodableValue``; every later pose is
    a record target decoded off the wire, so each tick packs unchecked.
    """

    _starvation_limit = 250
    _solve = staticmethod(_solve_window.__wrapped__)

    def __init__(self, initial_pose, capture: bool):
        self.pose = tuple(float(v) for v in initial_pose)
        _check_f32(self.pose, "pose component")
        self._joints = (0.0,) * 6
        self.fallback_stops = 0
        # (first_record, n_records, target, dur_us) per completed motion
        self._captured: list | None = [] if capture else None
        self._last_tick_us = 0
        self._state = _IDLE
        self._error = 0
        self._total = 0
        self._acked = 0
        self._hungry = 0
        self._cmd_obj: bytes | None = None
        self._fb_fields = _IDLE_FEEDBACK_FIELDS
        self._fb_bytes = IDLE_FEEDBACK_BYTES
        self._begin_skill()

    @property
    def state(self) -> RobotState:
        return self._state

    @property
    def executed(self) -> list:
        """Captured (first_record, n_records, target, duration_us) tuples."""
        if self._captured is None:
            raise RuntimeError("executor built without capture=True")
        return self._captured

    def _begin_skill(self):
        """Empty motion lists for a skill of ``_total`` records."""
        self._motions: list[tuple] = []  # (record, first_index, n_records)
        # (continuation awaiting its target, (point before, end point) of the
        # last Cartesian leg), read and written once per ``_ingest``
        self._carry: tuple = (None, None)
        self._lengths: list[float] = []  # path length per motion, 0 for joint moves
        self._vmaxes: list[float] = []  # velocity per motion
        self._accels: list[float] = []  # acceleration per motion
        self._corners: list = []  # candidate blend into the following motion
        self._next = 0
        # (end_us, dur_us, motion, end pose, end joints, (exit speed, exit trunc))
        self._active = None
        # (first, end, speeds, blends, straight) over _motions[first:end]
        self._plan = None
        self._entry = _AT_REST  # (speed, truncation) the next motion enters at
        self._completed = 0  # records of the completed motions

    def _ingest(self, records, first_idx: int):
        """Add ``records``, wire records ``first_idx`` (1-based) on of the
        skill.  A continuation record waits for the target record that
        completes it, and the pair is one physical motion.  Raises
        MalformedContinuation when the next record does not complete a
        continuation, or the skill ends on one, and MalformedRecord when a
        record's velocity or acceleration is not positive or its approx
        distance is negative."""
        motions, lengths, corners = self._motions, self._lengths, self._corners
        vmaxes, accels = self._vmaxes, self._accels
        (aux, approach), plan = self._carry, self._plan
        am = motions[-1][0] if motions else None  # the last motion's record
        for idx, rec in enumerate(records, first_idx):
            v, a = rec.velocity, rec.acceleration
            if not (v > 0.0 and a > 0.0 and rec.approx_distance >= 0.0):
                raise MalformedRecord(f"record {idx}: dynamics out of range")
            if aux is not None:
                if rec.continuation or rec.motion_type is not aux.motion_type:
                    raise MalformedContinuation("continuation without matching target")
            elif rec.continuation:
                if idx == self._total:
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
                        # the plan's last motion stopped at the window's end
                        # and now blends on: the activation after the active
                        # motion solves again from its committed exit
                        self._plan = None
                approach = (last_start, q)
            motions.append((rec, idx, 1) if aux is None else (rec, idx - 1, 2))
            lengths.append(length)
            vmaxes.append(v)
            accels.append(a)
            corners.append(None)
            am = rec
            aux = None
        self._carry = (aux, approach)

    def _complete(self):
        _end, dur_us, (rec, first, n), end_pose, end_joints, committed = self._active
        self.pose = end_pose
        self._joints = end_joints
        self._completed += n
        self._entry = committed
        self._active = None
        self._next += 1
        if self._captured is not None:
            self._captured.append((first, n, rec.target, dur_us))

    def _activate(self, t_us: int):
        k = self._next
        motions = self._motions
        motion = motions[k]
        rec, idx, n = motion
        if rec.joint_target:
            # corners never blend into or out of a joint motion, so the
            # committed entry speed here is always zero; the TCP pose is held
            deltas = [t - c for t, c in zip(rec.target, self._joints)]
            seconds = ptp_time(deltas, rec.velocity, rec.acceleration)
            end_pose, end_joints = self.pose, rec.target
            committed = _AT_REST
        else:
            if k + 1 == len(motions) and idx + n <= self._total:
                # successor exists but has not arrived: commit an exact stop
                self.fallback_stops += 1
            plan = self._plan
            # a plan starts at the motion whose activation made it, so it
            # covers k when k is short of its end
            if plan is not None and k < plan[1]:
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
                speeds, blends, straight = self._solve(
                    tuple(self._lengths[k:end]),
                    tuple(self._vmaxes[k:end]),
                    tuple(self._accels[k:end]),
                    (None, *corners[k : end - 1], None),
                    *self._entry,
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
                entry_speed, entry_trunc = self._entry
                s, arc = motion_time(
                    self._lengths[k], rec.velocity, rec.acceleration,
                    entry_speed, exit_speed, entry_trunc, b,
                )
                seconds = s + arc
            elif b is not None and b.arc_length > 0.0:
                seconds += b.arc_length / exit_speed
            committed = (exit_speed, b.truncation if b is not None else 0.0)
            end_pose, end_joints = rec.target, self._joints
        # every timing term is non-negative, and so is dur_us
        dur_us = math.ceil(seconds * 1e6 - 1e-12)
        self._active = (t_us + dur_us, dur_us, motion, end_pose, end_joints, committed)

    def _advance(self, t_us: int) -> bool:
        """The robot cycle at ``t_us``: completes the active motion if it
        ended by then and activates the next ones.  False means nothing
        ran: no motion is active or completed, as the next record is
        missing or the skill is complete."""
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
        return progressed or self._active is not None

    def _fail(self, code: int):
        self._state = _ERROR
        self._error = code

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
        if self._state is _RUNNING:
            progressed = self._advance(t_us)
            if self._completed >= self._total:
                self._state = _DONE
                self._hungry = 0
            elif progressed:
                self._hungry = 0
            else:
                self._hungry += 1
                if self._hungry >= self._starvation_limit:
                    self._fail(ERROR_STARVATION)
        st = self._state
        if st is _RUNNING or st is _DONE:
            cur = self._completed + 1
            if self._total < cur:
                cur = self._total
        elif st is _ERROR:
            cur = self._fb_fields[2]  # curExec as last reported
        else:
            cur = 0
        fields = (st, self._error, cur, self._acked, self.pose)
        if fields != self._fb_fields:
            self._fb_bytes = _pack_feedback(*fields)
            self._fb_fields = fields
        return self._fb_bytes

    def next_wakeup(self) -> int | None:
        """µs from the last tick to the earliest time at which a tick with
        the same command image can change anything: the end of the active
        motion, else 1 (the next robot cycle) while a hungry executor counts
        cycles towards its starvation limit.  None when no such tick exists
        (IDLE, DONE, ERROR or ABORTING)."""
        if self._state is not _RUNNING:
            return None
        if self._active is not None:
            return self._active[0] - self._last_tick_us
        return 1


class RobotExecutor(_CyclicExecutor):
    """Streaming skill executor driven by the cyclic command image.

    Each new command image streams in the records it loaded beyond the
    last one ingested, decoding only their slots.  Record errors surface
    as feedback state ERROR with code 1, ``starvation_limit`` consecutive
    hungry cycles as code 2.
    """

    def __init__(
        self,
        initial_pose=(0.0,) * 6,
        starvation_limit: int = 250,
        capture: bool = False,
    ):
        # a count of cycles: None, a bool or a float is refused
        if type(starvation_limit) is not int or starvation_limit < 1:
            raise ValueError(f"starvation_limit must be a positive int, got {starvation_limit!r}")
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
            self._begin_skill()
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
        self._ingest(records, self._known + 1)
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
            self._begin_skill()
            # one consecutive numbering across the plans
            self._ingest(self._records, 1)
