"""PLC side of the skill protocol: trigger instances and cycle programs.

A ``PlcSkillInstance`` owns the outgoing command image.  A skill is the
list of its 44-byte record images, cut once from its plan image
(``wire.encode_plan``) and then only copied, as a PLC copies records from
a data block.  Starting a skill (``start_images``) loads the first images
into the five slots and raises the START word;
the cyclic ``cycle()`` call consumes robot feedback, streams further images
into freed slots (FIFO), and walks the handshake back to IDLE when the
robot reports DONE.  A robot ERROR, in any state, raises ``RobotError``
with the robot's code: the PLC has no recovering path.

The PLC packs each image from its window with ``wire.pack_command_frame``,
a refill's too, and builds no ``CommandFrame``: it keeps every field in
range itself.  record_count is min(5, totalNo), loadedThrough at most
totalNo, ``PlanTooLarge`` keeps totalNo within u32, frame_seq is counted
modulo 2**16, and ``start_images`` checks that every record image is 44
bytes.

One program class, ``SkillProgram``, sequences a whole measurement run out
of compiled skills and timestamps its window (first START emission to
final DONE observation).  ``continuous_skills`` compiles one skill per
continuous group and ``single_motion_skills`` one skill per motion; a
natively stored program needs a single empty trigger skill.  A skill is a
tuple of record images and a program only copies them, so a caller that
runs one setup many times compiles it once (``bench.compile_setup``).
"""

from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum

from .wire import (
    SLOT_COUNT,
    RECORD_SIZE,
    CommandWord,
    FeedbackFrame,
    RobotState,
    encode_plan,
    pack_command_frame,
    slot_for_record,
)


class ProtocolError(Exception):
    pass


class BusySkill(ProtocolError):
    """start requested while a skill is still in flight"""


class PlanTooLarge(ProtocolError):
    """record count does not fit the totalNo field"""


class FeedbackRegression(ProtocolError):
    """curExec moved backwards; the feedback channel is corrupt"""


class RobotError(ProtocolError):
    """robot reported the ERROR state"""

    def __init__(self, code: int):
        super().__init__(f"robot error code {code}")
        self.code = code


class PlcSkillState(Enum):
    IDLE = "idle"
    RUNNING = "running"
    DONE = "done"


# enum members bound once: a module global loads faster than an enum
# attribute on the per-cycle path
_SKILL_IDLE, _SKILL_RUNNING, _SKILL_DONE = (
    PlcSkillState.IDLE,
    PlcSkillState.RUNNING,
    PlcSkillState.DONE,
)
_ROBOT_IDLE, _ROBOT_DONE, _ROBOT_ERROR = RobotState.IDLE, RobotState.DONE, RobotState.ERROR
_IDLE_WORD, _START_WORD = CommandWord.IDLE, CommandWord.START


class PlcSkillInstance:
    """Command-image owner for one robot connection.

    Runs one skill at a time.  ``image`` is the 256-byte frame to put on the
    bus this cycle; it only changes when the content changes, so callers can
    compare by object identity.  A refill packs a new START image of the
    five records that end at the new loadedThrough.
    """

    def __init__(self):
        self._state = PlcSkillState.IDLE
        self._images: tuple[bytes, ...] = ()
        self._total = 0
        self._loaded = 0
        self._last_cur = 0
        self._frame_seq = 0
        # a new object, not wire.IDLE_COMMAND_BYTES: the loop compares images
        # by identity, so the first tick publishes this IDLE image
        self._image = pack_command_frame(CommandWord.IDLE, 0, 0, 0, 0, ())
        self.skills_completed = 0
        self.last_error: int | None = None

    @property
    def state(self) -> PlcSkillState:
        return self._state

    @property
    def image(self) -> bytes:
        return self._image

    def _next_seq(self) -> int:
        self._frame_seq = (self._frame_seq + 1) & 0xFFFF
        return self._frame_seq

    def start_images(self, images):
        """Load a skill's 44-byte record images, record 1 first, and raise
        START.  Refills pack these images into the command image as they
        are."""
        if self._state is not PlcSkillState.IDLE:
            raise BusySkill(f"skill still {self._state.value}")
        images = tuple(images)
        if len(images) > 0xFFFFFFFF:
            raise PlanTooLarge(f"{len(images)} records do not fit totalNo")
        for m, image in enumerate(images, 1):
            if len(image) != RECORD_SIZE:
                raise ValueError(f"record {m} image is {len(image)} bytes, need {RECORD_SIZE}")
        self._images = images
        self._total = len(images)
        self._loaded = loaded = min(SLOT_COUNT, self._total)
        self._last_cur = 0
        # records 1..5 sit in slots 0..4
        self._image = pack_command_frame(
            CommandWord.START, loaded, self._total, loaded, self._next_seq(), images[:loaded]
        )
        self._state = PlcSkillState.RUNNING

    def _refill(self, cur: int):
        # record m may overwrite its slot once record m-5 is complete, i.e.
        # once curExec has moved past it: m <= cur + SLOT_COUNT - 1
        if cur < self._last_cur:
            raise FeedbackRegression(f"curExec went {self._last_cur} -> {cur}")
        self._last_cur = cur
        target = cur + SLOT_COUNT - 1
        if self._total < target:
            target = self._total
        if target <= self._loaded:
            return
        self._loaded = target
        # a refill needs totalNo > 5, so the window holds five records,
        # target - 4 first; rotated so that record m sits in its slot
        window = self._images[target - SLOT_COUNT : target]
        k = slot_for_record(target + 1)  # the slot of record target - 4
        self._image = pack_command_frame(
            _START_WORD,
            SLOT_COUNT,
            self._total,
            target,
            self._next_seq(),
            window[-k:] + window[:-k],
        )

    def cycle(self, fb: FeedbackFrame):
        """One PLC task cycle: consume feedback, update the command image.

        Raises ``RobotError`` on ERROR feedback, whatever the state.  Until
        the robot reports DONE, any other feedback (LOADING or IDLE before
        the robot takes up START, with curExec 0) only refills the window.
        """
        robot = fb.state
        if robot is _ROBOT_ERROR:
            self.last_error = fb.error_code
            raise RobotError(fb.error_code)
        st = self._state
        if st is _SKILL_RUNNING:
            if robot is _ROBOT_DONE:
                self._state = _SKILL_DONE
                self._image = pack_command_frame(_IDLE_WORD, 0, 0, 0, self._next_seq(), ())
            else:
                self._refill(fb.cur_exec)
        elif st is _SKILL_DONE:
            if robot is _ROBOT_IDLE:
                self._state = _SKILL_IDLE
                self.skills_completed += 1
                self._images = ()


class SkillProgram:
    """Runs skills back to back over one connection; each skill is a tuple
    of 44-byte record images, as ``continuous_skills`` and
    ``single_motion_skills`` compile them.  The program only copies those
    images into its slots, so one compiled tuple of skills can serve any
    number of programs, as a PLC's data block serves every run.

    ``t_start_us`` marks the cycle that first emitted START, ``t_end_us`` the
    cycle that read the final skill's DONE; the trailing IDLE handshake falls
    outside the measured window.

    ``plc_tick`` depends on its time argument only for those two stamps,
    and one tick reaches the fixed point of its feedback, as
    ``fieldbus_sim.run`` requires: a refill loads through
    min(totalNo, curExec + 4) at once, and every state change waits for a
    feedback state this feedback does not have.  A robot ERROR raises
    ``RobotError`` from ``PlcSkillInstance.cycle``.  Each tick reads the
    feedback frame ``run`` decoded when the robot published it, as a PLC
    reads its typed inputs; ``run`` wakes the PLC only for a new one.
    """

    def __init__(self, skills):
        self._skills = tuple(skills)
        self.plc = PlcSkillInstance()
        self._next = 0
        self.t_start_us: int | None = None
        self.t_end_us: int | None = None
        self.finished = False

    def plc_tick(self, t_us: int, fb: FeedbackFrame) -> bytes:
        plc = self.plc
        before = plc._state
        plc.cycle(fb)
        st = plc._state
        if st is before and (st is not _SKILL_IDLE or self.finished):
            # nothing to stamp and no skill to start
            return plc._image
        if st is _SKILL_DONE:
            if self._next == len(self._skills):
                # the skill that just finished is the last one
                self.t_end_us = t_us
        elif st is _SKILL_IDLE and not self.finished:
            if self._next < len(self._skills):
                if fb.state is _ROBOT_IDLE:
                    plc.start_images(self._skills[self._next])
                    self._next += 1
                    if self.t_start_us is None:
                        self.t_start_us = t_us
            else:
                self.finished = True
        return plc._image

    @property
    def elapsed_ms(self) -> float:
        if self.t_start_us is None or self.t_end_us is None:
            raise RuntimeError("program did not complete a measurement")
        return (self.t_end_us - self.t_start_us) / 1000.0


def continuous_skills(plans) -> tuple[tuple[bytes, ...], ...]:
    """One skill per continuous group: the record images of each plan."""
    return tuple(tuple(encode_plan(p.motions)) for p in plans)


def single_motion_skills(plans) -> tuple[tuple[bytes, ...], ...]:
    """One skill per motion, each ending on its exact target: the
    ``continuous_skills`` of one-motion plans with approx +0.0."""
    return tuple(tuple(encode_plan([_exact_stop(m)])) for p in plans for m in p.motions)


class ContinuousMotionProgram(SkillProgram):
    """One skill per continuous group, full handshake between groups."""

    def __init__(self, plans):
        super().__init__(continuous_skills(plans))


def _exact_stop(m):
    """``m`` with approx +0.0.  Most motions already have it, and
    ``replace`` costs a validated construction; a ``-0.0`` is replaced, so
    it goes out on the wire as +0.0."""
    if m.approx_distance == 0.0 and math.copysign(1.0, m.approx_distance) > 0.0:
        return m
    return replace(m, approx_distance=0.0)


class NativeTriggerProgram(SkillProgram):
    """Single START/DONE handshake for a natively stored motion program."""

    def __init__(self):
        super().__init__(((),))
