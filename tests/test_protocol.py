"""Five-slot FIFO streaming protocol: PLC trigger, robot executor, equivalence.

The reference behavior for the streamed path is the direct in-memory handoff
(NativeExecutor): same motions, same robot task, no slot window.  Streaming
must consume the identical record sequence and land on the identical pose.
"""

import copy
import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from skillbench.core import (
    ContinuousSkillPlan,
    ExecutionType,
    JointTarget,
    MotionCommand,
    MotionType,
    Pose,
)
from skillbench.bench import SETUP_A, SETUP_B, _build_run, build_plans, compile_plans
from skillbench.fieldbus_sim import SimConfig, SimTrace, run
from skillbench.plc_trigger import (
    BusySkill,
    ContinuousMotionProgram,
    FeedbackRegression,
    NativeTriggerProgram,
    PlcSkillInstance,
    PlcSkillState,
    RobotError,
    SkillProgram,
    single_motion_skills,
)
from skillbench.robot_executor import (
    ERROR_RECORD,
    ERROR_STARVATION,
    NativeExecutor,
    RobotExecutor,
    stored_records,
)
from skillbench.wire import (
    SLOT_COUNT,
    CommandFrame,
    CommandWord,
    FeedbackFrame,
    IDLE_COMMAND_BYTES,
    RobotState,
    UnencodableValue,
    decode_command_frame,
    decode_command_header,
    decode_feedback_frame,
    encode_command_frame,
    encode_feedback_frame,
    encode_plan,
    encode_record,
    explode_plan,
    slot_for_record,
)

from stream_harness import (
    ORIGIN,
    WindowViolation,
    check_window,
    consumed,
    f32,
    images,
    native_baseline,
    random_motions,
)


def lin(x, y=0.0, z=0.0, v=250.0, a=2000.0, approx=0.0):
    return MotionCommand(
        motion_type=MotionType.LIN_CARTESIAN,
        target=Pose(x, y, z),
        velocity=v,
        acceleration=a,
        approx_distance=approx,
    )


def arc(x, aux, v=250.0, a=2000.0):
    """A circular motion along +x through ``aux``: two wire records."""
    return MotionCommand(
        motion_type=MotionType.CIRCULAR,
        target=Pose(x, 0.0, 0.0),
        velocity=v,
        acceleration=a,
        aux_point=aux,
    )


def fb(state, cur=0, err=0, ack=0):
    return FeedbackFrame(
        state=state, error_code=err, cur_exec=cur, acked_seq=ack, pose=(0.0,) * 6
    )


def records(n, length=1.0):
    """n short LIN records walking +x."""
    return explode_plan(
        [lin((i + 1) * length, v=4000.0, a=4.0e6) for i in range(n)]
    )


# --- PLC trigger instance -------------------------------------------------------


class TestPlcSkillInstance:
    def test_initial_idle_image(self):
        plc = PlcSkillInstance()
        assert plc.state is PlcSkillState.IDLE
        frame = decode_command_frame(plc.image)
        assert frame.command is CommandWord.IDLE
        assert frame.total_no == 0

    def test_start_loads_first_window(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(3)))
        assert plc.state is PlcSkillState.RUNNING
        frame = decode_command_frame(plc.image)
        assert frame.command is CommandWord.START
        assert (frame.record_count, frame.total_no, frame.loaded_through) == (3, 3, 3)
        assert frame.slots[3] == bytes(44) and frame.slots[4] == bytes(44)

    def test_start_caps_initial_load_at_slot_count(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(9)))
        frame = decode_command_frame(plc.image)
        assert (frame.record_count, frame.total_no, frame.loaded_through) == (5, 9, 5)

    @pytest.mark.parametrize("length", [0, 43, 45])
    def test_start_rejects_an_image_of_the_wrong_length(self, length):
        # a record past the first window would otherwise reach a refill and
        # change the frame length there
        skill = images(records(9))
        skill[6] = bytes(length)
        plc = PlcSkillInstance()
        with pytest.raises(ValueError, match=f"record 7 image is {length} bytes"):
            plc.start_images(skill)
        assert plc.state is PlcSkillState.IDLE and plc.image == IDLE_COMMAND_BYTES

    def test_start_while_busy_rejected(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(2)))
        with pytest.raises(BusySkill):
            plc.start_images(images(records(2)))

    def test_refill_keeps_window_invariant(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(9)))
        img = plc.image
        plc.cycle(fb(RobotState.RUNNING, cur=1))
        assert plc.image is img  # loaded 5 == 1 + 4: nothing to stream yet
        plc.cycle(fb(RobotState.RUNNING, cur=2))
        frame = decode_command_frame(plc.image)
        assert frame.loaded_through == 6
        from skillbench.wire import decode_record

        assert decode_record(frame.slots[slot_for_record(6)]).record_seq == 6

    def test_refill_handles_feedback_jumps(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(9)))
        plc.cycle(fb(RobotState.RUNNING, cur=5))
        frame = decode_command_frame(plc.image)
        assert frame.loaded_through == 9
        assert frame.total_no == 9

    @pytest.mark.parametrize("cur", [2, 3])
    def test_feedback_regression_rejected(self, cur):
        # a regression by a single record is as wrong as one by two
        plc = PlcSkillInstance()
        plc.start_images(images(records(9)))
        plc.cycle(fb(RobotState.RUNNING, cur=4))
        with pytest.raises(FeedbackRegression):
            plc.cycle(fb(RobotState.RUNNING, cur=cur))

    def test_done_idle_handshake(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(2)))
        plc.cycle(fb(RobotState.RUNNING, cur=1))
        plc.cycle(fb(RobotState.DONE, cur=2))
        assert plc.state is PlcSkillState.DONE
        assert decode_command_frame(plc.image).command is CommandWord.IDLE
        plc.cycle(fb(RobotState.IDLE))
        assert plc.state is PlcSkillState.IDLE
        assert plc.skills_completed == 1

    def test_robot_error_raises_with_last_error_set(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(2)))
        img = plc.image
        with pytest.raises(RobotError, match="^robot error code 7$") as exc:
            plc.cycle(fb(RobotState.ERROR, err=7))
        assert exc.value.code == 7
        assert plc.last_error == 7
        assert plc.image is img and plc.skills_completed == 0

    def test_loading_feedback_reads_as_running(self):
        # a real controller may acknowledge START with LOADING first
        def published(states):
            plc = PlcSkillInstance()
            plc.start_images(images(records(9)))
            out = [plc.image]
            for state, cur in states:
                plc.cycle(fb(state, cur=cur))
                out.append(plc.image)
            return out, plc.state, plc.skills_completed

        running = [
            (RobotState.RUNNING, 1),
            (RobotState.RUNNING, 3),
            (RobotState.RUNNING, 9),
            (RobotState.DONE, 9),
            (RobotState.IDLE, 0),
        ]
        loaded, end, completed = published([(RobotState.LOADING, 0)] + running)
        assert loaded[1] is loaded[0]  # LOADING with curExec 0 loads nothing
        assert (loaded[1:], end, completed) == published(running)
        assert (end, completed) == (PlcSkillState.IDLE, 1)

    def test_idle_cycle_is_inert(self):
        plc = PlcSkillInstance()
        img = plc.image
        plc.cycle(fb(RobotState.IDLE))
        assert plc.image is img and plc.state is PlcSkillState.IDLE

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 7), max_size=40))
    @settings(max_examples=60)
    def test_refilled_image_equals_encoded_frame(self, seed, steps):
        # the packed image against a CommandFrame built from scratch
        rng = random.Random(seed)
        recs = explode_plan(random_motions(rng, rng.randint(1, 30)))
        total = len(recs)
        plc = PlcSkillInstance()
        plc.start_images(images(recs))
        seq, loaded, cur = 1, min(SLOT_COUNT, total), 0
        for step in steps:
            cur = min(total, cur + step)
            img = plc.image
            plc.cycle(fb(RobotState.RUNNING, cur=cur))
            target = min(total, cur + SLOT_COUNT - 1)
            if target > loaded:
                loaded, seq = target, seq + 1
            else:
                assert plc.image is img
            slots = [bytes(44)] * SLOT_COUNT
            for m in range(1, loaded + 1):
                slots[slot_for_record(m)] = encode_record(recs[m - 1])
            expected = CommandFrame(
                command=CommandWord.START,
                record_count=min(SLOT_COUNT, total),
                total_no=total,
                loaded_through=loaded,
                frame_seq=seq,
                slots=tuple(slots),
            )
            assert plc.image == encode_command_frame(expected)

    @pytest.mark.parametrize(
        "n, seqs",
        [(0x10001, (0xFFFE, 0xFFFF, 0)), (0x10002, (0xFFFF, 0, 1))],
        ids=["start-at-ffff", "idle-at-ffff"],
    )
    def test_handshake_images_across_the_frame_seq_wrap(self, n, seqs):
        # a first skill of n records, refilled once per curExec step, ends
        # with frame_seq n - 4; then IDLE, START and IDLE take the next three
        plc = PlcSkillInstance()
        plc.start_images(images(records(1)) * n)
        for cur in range(2, n - 3):
            plc.cycle(fb(RobotState.RUNNING, cur=cur))
        assert decode_command_header(plc.image).frame_seq == (n - 4) & 0xFFFF
        idle_seq, start_seq, last_seq = seqs
        plc.cycle(fb(RobotState.DONE, cur=n))
        assert plc.image == encode_command_frame(CommandFrame(frame_seq=idle_seq))
        plc.cycle(fb(RobotState.IDLE))
        skill = images(records(2))
        plc.start_images(skill)
        start = CommandFrame(
            command=CommandWord.START,
            record_count=2,
            total_no=2,
            loaded_through=2,
            frame_seq=start_seq,
            slots=tuple(skill) + (bytes(44),) * 3,
        )
        assert plc.image == encode_command_frame(start)
        plc.cycle(fb(RobotState.DONE, cur=2))
        assert plc.image == encode_command_frame(CommandFrame(frame_seq=last_seq))


# --- robot executor -------------------------------------------------------------


def start_image(recs, loaded=None, seq=1):
    """START image of a skill of ``recs`` holding records up to ``loaded``
    (default all) in their slots."""
    loaded = len(recs) if loaded is None else loaded
    slots = [bytes(44)] * SLOT_COUNT
    for idx in range(max(1, loaded - SLOT_COUNT + 1), loaded + 1):
        slots[slot_for_record(idx)] = encode_record(recs[idx - 1])
    return encode_command_frame(
        CommandFrame(
            command=CommandWord.START,
            record_count=min(loaded, SLOT_COUNT),
            total_no=len(recs),
            loaded_through=loaded,
            frame_seq=seq,
            slots=tuple(slots),
        )
    )


def run_single_plan(plan, **executor_kw):
    program = ContinuousMotionProgram([plan])
    ex = RobotExecutor(capture=True, **executor_kw)
    check_window(run(program, ex).trace)
    return program, ex


def window_trace(*events):
    """The trace log of a run that publishes each command image and delivers
    each ``FeedbackFrame`` of ``events`` to the PLC, in that order."""
    trace = SimTrace()
    for t, event in enumerate(events):
        if isinstance(event, FeedbackFrame):
            trace.log.append((t, "bus", "fb_deliver", None, encode_feedback_frame(event)))
        else:
            trace.log.append((t, "plc", "cmd", None, event))
    return trace


def _window_violations():
    r8, r9 = records(8), records(9)

    def at(cur):
        return fb(RobotState.RUNNING, cur)

    first = start_image(r8, 5)
    return {
        "frame_seq-jump": ([first, start_image(r8, 5, seq=3)], "frame_seq jumped 1 -> 3"),
        "initial-load": ([start_image(r8, 4)], "initial load 4 of 8"),
        "totalNo-change": ([first, start_image(r9, 5, seq=2)], "totalNo changed mid-skill"),
        "loadedThrough-back": (
            [first, at(2), start_image(r8, 6, seq=2), start_image(r8, 5, seq=3)],
            "loadedThrough went backwards",
        ),
        "held-overwritten": (
            [first, at(1), start_image(r8, 6, seq=2)],
            "record 6 overwrote record 1 at curExec 1",
        ),
        # every slot of a started skill is held, so a record beyond
        # curExec + 4 overwrites the record five before it
        "beyond-window": (
            [first, at(2), start_image(r8, 7, seq=2)],
            "record 7 overwrote record 2 at curExec 2",
        ),
        # records 2..9 of a nine-record skill: slot 0 holds record_seq 2
        "wrong-record_seq": ([start_image(r9[1:], 5)], "slot 0 holds seq 2, expected record 1"),
    }


WINDOW_VIOLATIONS = _window_violations()


class TestWindowCheck:
    @pytest.mark.parametrize("rule", sorted(WINDOW_VIOLATIONS))
    def test_raises_on_the_violating_image(self, rule):
        events, message = WINDOW_VIOLATIONS[rule]
        check_window(window_trace(*events[:-1]))
        with pytest.raises(WindowViolation, match=message):
            check_window(window_trace(*events))

    def test_sees_every_published_command_image(self):
        plan = ContinuousSkillPlan(tuple(random_motions(random.Random(11), 30)))
        trace = run(ContinuousMotionProgram([plan]), RobotExecutor()).trace
        published = [event for event in trace.log if event[2] == "cmd"]
        assert check_window(trace).frames_seen == len(published) > 2 * SLOT_COUNT


class TestRobotExecutor:
    def test_duration_quantization(self):
        # 100 mm at v 250 a 2000 rest to rest: 0.525 s exactly
        plan = ContinuousSkillPlan((lin(100.0),))
        _, ex = run_single_plan(plan)
        assert ex.executed == [(1, 1, (100.0, 0.0, 0.0, 0.0, 0.0, 0.0), 525000)]
        assert ex.pose == (100.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_circular_pair_is_one_physical_motion(self):
        plan = ContinuousSkillPlan((lin(10.0, approx=1.0), arc(20.0, (10.0, 5.0, 0.0))))
        _, ex = run_single_plan(plan)
        assert [(f, n) for f, n, _t, _d in ex.executed] == [(1, 1), (2, 2)]

    def test_circular_target_in_a_later_refill_joins_its_continuation(self):
        # records 1-4 are LIN moves, 5 the continuation and 6 its target:
        # the first window ends on the continuation record
        recs = explode_plan([lin(float(x)) for x in range(1, 5)] + [arc(6.0, (5.0, 1.0, 0.0))])
        ex = RobotExecutor(capture=True)
        first = start_image(recs, loaded=5)
        t = 0
        while not ex.executed and t < 1_000_000:  # record 1 frees its slot
            ex.tick(t, first)
            t += 4000
        refill = start_image(recs, loaded=6, seq=2)
        while ex.state is RobotState.RUNNING and t < 2_000_000:
            ex.tick(t, refill)
            t += 4000
        assert ex.state is RobotState.DONE
        assert [(f, n, target) for f, n, target, _d in ex.executed] == [
            (1, 1, recs[0].target),
            (2, 1, recs[1].target),
            (3, 1, recs[2].target),
            (4, 1, recs[3].target),
            (5, 2, recs[5].target),
        ]

    @pytest.mark.parametrize(
        "layout, faults",
        [("aux", True), ("aux-aux", True), ("aux-lin", True), ("lin-aux", True), ("aux-target", False)],
    )
    def test_unfinished_continuation_faults_with_code_1(self, layout, faults):
        aux, target = explode_plan([arc(20.0, (10.0, 5.0, 0.0))])
        kinds = {"aux": aux, "target": target, "lin": records(1)[0]}
        recs = [kinds[k]._replace(record_seq=i) for i, k in enumerate(layout.split("-"), 1)]
        f = decode_feedback_frame(RobotExecutor().tick(0, start_image(recs)))
        if faults:
            assert (f.state, f.error_code) == (RobotState.ERROR, ERROR_RECORD)
        else:
            assert (f.state, f.error_code) == (RobotState.RUNNING, 0)

    def test_acked_seq_mirrors_command_frame(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(2)))
        ex = RobotExecutor()
        fb_frame = decode_feedback_frame(ex.tick(0, plc.image))
        assert fb_frame.acked_seq == decode_command_frame(plc.image).frame_seq
        assert fb_frame.state is RobotState.RUNNING
        assert fb_frame.cur_exec == 1

    def test_abort_discards_active_motion(self):
        # the simulated PLC never sends ABORT; a real one may
        plan = ContinuousSkillPlan((lin(100.0, v=10.0),))  # 10.1 s
        abort = encode_command_frame(CommandFrame(command=CommandWord.ABORT, frame_seq=2))
        idle = encode_command_frame(CommandFrame(frame_seq=3))
        for ex in (RobotExecutor(), NativeExecutor([plan])):
            plc = PlcSkillInstance()
            plc.start_images(encode_plan(plan.motions))
            f = decode_feedback_frame(ex.tick(0, plc.image))
            assert f.state is RobotState.RUNNING
            f = decode_feedback_frame(ex.tick(4000, abort))
            assert (f.state, f.acked_seq) == (RobotState.ABORTING, 2), type(ex)
            f = decode_feedback_frame(ex.tick(8000, idle))
            assert (f.state, f.acked_seq) == (RobotState.IDLE, 3)
            assert ex.pose == (0.0,) * 6  # never completed the motion

    def test_withdrawn_command_mid_skill_aborts(self):
        plan = ContinuousSkillPlan((lin(100.0, v=10.0),))
        for ex in (RobotExecutor(), NativeExecutor([plan])):
            plc = PlcSkillInstance()
            plc.start_images(encode_plan(plan.motions))
            ex.tick(0, plc.image)
            idle_img = encode_command_frame(CommandFrame(frame_seq=99))
            f = decode_feedback_frame(ex.tick(4000, idle_img))
            assert f.state is RobotState.ABORTING, type(ex)
            f = decode_feedback_frame(ex.tick(8000, idle_img))
            assert f.state is RobotState.ABORTING  # held until the IDLE word changes
            assert ex.pose == (0.0,) * 6

    @pytest.mark.parametrize("how", ["abort", "withdrawn", "fault"])
    @pytest.mark.parametrize("make", [RobotExecutor, NativeExecutor], ids=["streamed", "native"])
    def test_a_skill_after_an_interruption_runs_as_on_a_fresh_executor(self, make, how):
        # the interrupted skill leaves an active motion, a solved plan of
        # blended corners and a committed exit speed behind; the next START
        # must see none of them
        plan = ContinuousSkillPlan(
            tuple(lin(10.0 * i, 5.0 * (i % 2), approx=2.0) for i in range(1, 13)) + (lin(130.0),)
        )
        skill = encode_plan(plan.motions)

        def lockstep(ex, t_us, ticks):
            """A new PLC starts ``skill`` and cycles on the feedback of each
            of ``ticks`` ticks of ``ex`` on a 1 ms grid from ``t_us``."""
            plc = PlcSkillInstance()
            plc.start_images(skill)
            out = []
            for i in range(ticks):
                out.append(ex.tick(t_us + 1000 * i, plc.image))
                plc.cycle(decode_feedback_frame(out[-1]))
            return plc, out

        ex = make(capture=True) if make is RobotExecutor else make([plan], capture=True)
        plc, out = lockstep(ex, 0, 400)
        f = decode_feedback_frame(out[-1])
        assert f.state is RobotState.RUNNING and 1 < f.cur_exec < len(skill)
        if how == "abort":
            image = encode_command_frame(CommandFrame(command=CommandWord.ABORT, frame_seq=50))
        elif how == "withdrawn":
            image = encode_command_frame(CommandFrame(frame_seq=50))
        elif make is RobotExecutor:
            # loadedThrough one past the records sent: the next slot still
            # holds record loadedThrough - 4
            image = bytearray(plc.image)
            loaded = decode_command_header(image).loaded_through
            assert loaded < len(skill)
            struct.pack_into("<I", image, 6, loaded + 1)
            image = bytes(image)
        else:
            image = b"\x07" + plc.image[1:]  # no such command word
        f = decode_feedback_frame(ex.tick(400_000, image))
        stopped = (RobotState.ERROR, ERROR_RECORD) if how == "fault" else (RobotState.ABORTING, 0)
        assert (f.state, f.error_code) == stopped
        f = decode_feedback_frame(ex.tick(401_000, encode_command_frame(CommandFrame(frame_seq=51))))
        assert f.state is RobotState.IDLE
        done = len(ex.executed)
        pose = ex.pose
        fresh = (
            make(pose, capture=True) if make is RobotExecutor else make([plan], pose, capture=True)
        )
        plc, after = lockstep(ex, 402_000, 2000)
        fresh_plc, expected = lockstep(fresh, 402_000, 2000)
        assert plc.skills_completed == fresh_plc.skills_completed == 1
        assert after == expected
        assert ex.executed[done:] == fresh.executed

    def test_record_seq_corruption_faults_with_code_1(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(3)))
        img = bytearray(plc.image)
        struct.pack_into("<H", img, 12 + 2, 99)  # slot 1 record_seq
        ex = RobotExecutor()
        f = decode_feedback_frame(ex.tick(0, bytes(img)))
        assert f.state is RobotState.ERROR
        assert f.error_code == ERROR_RECORD

    def test_nonfinite_record_scalar_faults_with_code_1(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(3)))
        img = bytearray(plc.image)
        struct.pack_into("<f", img, 12 + 28, math.nan)  # slot 1 velocity
        ex = RobotExecutor()
        f = decode_feedback_frame(ex.tick(0, bytes(img)))
        assert f.state is RobotState.ERROR
        assert f.error_code == ERROR_RECORD

    @pytest.mark.parametrize(
        "kind, offset, value",
        [
            ("lin", 28, 0.0),
            ("lin", 28, -5.0),
            ("lin", 32, 0.0),
            ("lin", 32, -1.0),
            ("lin", 36, -1.0),
            ("joint", 28, 0.0),
        ],
        ids=["v0", "v-5", "a0", "a-1", "approx-1", "joint-v0"],
    )
    def test_nonpositive_record_dynamics_fault_with_code_1(self, kind, offset, value):
        # slot 1 holds record 1, whose velocity, acceleration and approx
        # distance sit at bytes 28, 32 and 36 of the record
        if kind == "lin":
            motions = [lin(10.0), lin(10.0, 10.0), lin(20.0, 10.0)]
        else:
            motions = [MotionCommand(MotionType.PTP_JOINT, JointTarget(90.0), 180.0, 720.0)]
        plc = PlcSkillInstance()
        plc.start_images(images(explode_plan(motions)))
        img = bytearray(plc.image)
        struct.pack_into("<f", img, 12 + offset, value)
        ex = RobotExecutor()
        f = decode_feedback_frame(ex.tick(0, bytes(img)))
        assert (f.state, f.error_code) == (RobotState.ERROR, ERROR_RECORD)
        idle = encode_command_frame(CommandFrame(frame_seq=9))
        f = decode_feedback_frame(ex.tick(4000, idle))
        assert (f.state, f.error_code) == (RobotState.IDLE, 0)

    def test_error_recovery_handshake(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(3)))
        img = bytearray(plc.image)
        struct.pack_into("<H", img, 12 + 2, 99)
        ex = RobotExecutor()
        f = decode_feedback_frame(ex.tick(0, bytes(img)))
        assert (f.state, f.error_code) == (RobotState.ERROR, ERROR_RECORD)
        with pytest.raises(RobotError):
            plc.cycle(f)
        assert plc.last_error == ERROR_RECORD
        # the IDLE word clears the robot's ERROR, and it takes a new skill
        idle = encode_command_frame(CommandFrame(frame_seq=7))
        f = decode_feedback_frame(ex.tick(4000, idle))
        assert (f.state, f.error_code, f.acked_seq) == (RobotState.IDLE, 0, 7)
        fresh = PlcSkillInstance()
        fresh.start_images(images(records(1)))
        f = decode_feedback_frame(ex.tick(8000, fresh.image))
        assert f.state is RobotState.RUNNING

    def test_starvation_faults_with_code_2(self):
        recs = records(1)
        slots = [bytes(44)] * SLOT_COUNT
        slots[slot_for_record(1)] = encode_record(recs[0])
        img = encode_command_frame(
            CommandFrame(
                command=CommandWord.START,
                record_count=1,
                total_no=2,  # record 2 never arrives
                loaded_through=1,
                frame_seq=1,
                slots=tuple(slots),
            )
        )
        ex = RobotExecutor()
        ex._starvation_limit = 10  # the class's 250, shortened for the test
        t = 0
        state = None
        hungry = 0
        for _ in range(40):
            f = decode_feedback_frame(ex.tick(t, img))
            t += 4000
            if f.state is RobotState.ERROR:
                state = f
                break
            if f.cur_exec == 2:
                # record 1 is complete: a hungry executor asks for a time no
                # later than its last tick, so for the next robot cycle
                assert ex.next_wakeup() == 0
                hungry += 1
        assert state is not None and state.error_code == ERROR_STARVATION
        assert hungry == 10  # the tick completing record 1, then 9 hungry ones
        assert ex.fallback_stops >= 1

    def test_the_wakeup_is_the_active_motion_end_on_the_ticks_clock(self):
        # after a tick at t that activates a motion of dur_us, the executor
        # asks for t + dur_us, a time on the clock its ticks carry
        plans = [ContinuousSkillPlan((lin(10.0), lin(20.0, approx=5.0), lin(20.0, 30.0)))]
        plc = PlcSkillInstance()
        plc.start_images(encode_plan(plans[0].motions))
        for ex in (RobotExecutor(capture=True), NativeExecutor(plans, capture=True)):
            ticks, wakes = [], []
            t = 1234
            while ex.state is not RobotState.DONE:
                before = ex._active
                ex.tick(t, plc.image)
                if ex._active is not None and ex._active is not before:
                    ticks.append(t)
                    wakes.append(ex.next_wakeup())
                t += 4000
            durations = [dur_us for *_, dur_us in ex.executed]
            assert len(ticks) == 3 and all(durations)
            assert wakes == [at + dur_us for at, dur_us in zip(ticks, durations)]

    def test_oversized_initial_load_rejected(self):
        img = encode_command_frame(
            CommandFrame(
                command=CommandWord.START,
                record_count=5,
                total_no=9,
                loaded_through=6,
                frame_seq=1,
                slots=tuple(encode_record(r) for r in records(6)[:5]) + (),
            )
        )
        ex = RobotExecutor()
        f = decode_feedback_frame(ex.tick(0, img))
        assert f.state is RobotState.ERROR and f.error_code == ERROR_RECORD

    def test_total_no_change_mid_skill_rejected(self):
        plc = PlcSkillInstance()
        plc.start_images(images(records(9)))
        ex = RobotExecutor()
        ex.tick(0, plc.image)
        frame = decode_command_frame(plc.image)
        tampered = encode_command_frame(
            CommandFrame(**{**frame._asdict(), "total_no": 10, "frame_seq": frame.frame_seq + 1})
        )
        f = decode_feedback_frame(ex.tick(4000, tampered))
        assert f.state is RobotState.ERROR and f.error_code == ERROR_RECORD

    def test_loaded_through_regression_mid_skill_rejected(self):
        # a refill that loads through record 4 after records 1-5 arrived
        r9 = records(9)
        ex = RobotExecutor()
        ex.tick(0, start_image(r9, 5))
        f = decode_feedback_frame(ex.tick(4000, start_image(r9, 4, seq=2)))
        assert (f.state, f.error_code) == (RobotState.ERROR, ERROR_RECORD)

    def test_zero_record_skill_handshake(self):
        plc = PlcSkillInstance()
        plc.start_images([])
        ex = RobotExecutor()
        f = decode_feedback_frame(ex.tick(0, plc.image))
        assert f.state is RobotState.DONE
        plc.cycle(f)
        assert plc.state is PlcSkillState.DONE

    def test_feedback_equals_encoded_frame_of_its_fields(self):
        # the executors pack their feedback fields without a FeedbackFrame,
        # and without a pose check once the initial pose passed one; x = 0.1
        # is no f32, so each image must round that pose as the frame does
        pose = (0.1,) + (0.0,) * 5
        plans = [ContinuousSkillPlan(tuple(random_motions(random.Random(5), 30)))]
        stored = [
            ContinuousSkillPlan(
                tuple(
                    lin(1.1 + i, 1.0 if i % 2 else 0.0, v=4000.0, a=4.0e6, approx=0.2)
                    for i in range(199)
                )
                + (lin(200.1, v=4000.0, a=4.0e6),)
            )
        ]
        for program, ex in (
            (ContinuousMotionProgram(plans), RobotExecutor(initial_pose=pose)),
            (ContinuousMotionProgram(plans), NativeExecutor(plans)),
            (NativeTriggerProgram(), NativeExecutor(stored, initial_pose=pose)),
        ):
            published = []
            tick = ex.tick

            def recorded(t_us, cmd_bytes, tick=tick, ex=ex):
                out = tick(t_us, cmd_bytes)
                published.append((out, FeedbackFrame(*ex._fb_fields)))
                return out

            ex.tick = recorded
            run(program, ex)
            states = {frame.state for _, frame in published}
            assert {RobotState.RUNNING, RobotState.DONE} <= states
            for out, frame in published:
                assert out == encode_feedback_frame(frame)

    @staticmethod
    def builds():
        """The three constructors of an executor, each taking its pose."""
        plans = [ContinuousSkillPlan((lin(10.0),))]
        records = stored_records(plans)
        return (
            lambda pose: RobotExecutor(initial_pose=pose),
            lambda pose: NativeExecutor(plans, initial_pose=pose),
            lambda pose: NativeExecutor.from_records(records, initial_pose=pose),
        )

    def test_unencodable_pose_raises_as_before(self):
        # the initial pose is checked once, before any tick, as
        # ``encode_feedback_frame`` checks a frame's pose
        for bad in (math.nan, math.inf, -math.inf, 3.5e38):
            pose = (0.0, bad) + (0.0,) * 4
            with pytest.raises(UnencodableValue) as before:
                encode_feedback_frame(FeedbackFrame(pose=pose))
            for build in self.builds():
                with pytest.raises(UnencodableValue) as exc:
                    build(pose)
                assert str(exc.value) == str(before.value)

    @pytest.mark.parametrize("n", [5, 7])
    def test_a_pose_without_six_components_is_refused_when_built(self, n):
        # checked when built: unchecked, it would fail in ``struct`` at its
        # first tick, packing the feedback image
        pose = (0.0,) * n
        with pytest.raises(ValueError) as before:
            FeedbackFrame(pose=pose)
        for build in self.builds():
            with pytest.raises(ValueError) as exc:
                build(pose)
            assert str(exc.value) == str(before.value) == "pose needs six components"

    @pytest.mark.parametrize(
        "offset, value",
        [(0, 7), (1, SLOT_COUNT + 1), (6, 200)],  # command word, record_count, loadedThrough
        ids=["command-word", "record-count", "loaded-beyond-total"],
    )
    @pytest.mark.parametrize("phase", ["idle", "running"])
    def test_undecodable_frame_faults_both_executors(self, offset, value, phase):
        plans = [ContinuousSkillPlan((lin(10.0), lin(20.0)))]
        plc = PlcSkillInstance()
        plc.start_images(encode_plan(plans[0].motions))
        bad = bytearray(plc.image)
        bad[offset] = value
        for ex in (RobotExecutor(), NativeExecutor(plans)):
            t = 0
            if phase == "running":
                f = decode_feedback_frame(ex.tick(t, plc.image))
                assert f.state is RobotState.RUNNING
                t += 4000
            f = decode_feedback_frame(ex.tick(t, bytes(bad)))
            assert (f.state, f.error_code) == (RobotState.ERROR, ERROR_RECORD), type(ex)
            assert f.cur_exec == (1 if phase == "running" else 0)
            assert ex.next_wakeup() is None
            # ERROR holds until the IDLE word clears it
            f = decode_feedback_frame(ex.tick(t + 4000, plc.image))
            assert f.state is RobotState.ERROR
            idle = encode_command_frame(CommandFrame(frame_seq=9))
            f = decode_feedback_frame(ex.tick(t + 8000, idle))
            assert (f.state, f.error_code, f.acked_seq) == (RobotState.IDLE, 0, 9)
            f = decode_feedback_frame(ex.tick(t + 12000, plc.image))
            assert f.state is RobotState.RUNNING

    def test_program_raises_on_robot_error(self):
        program = ContinuousMotionProgram([ContinuousSkillPlan((lin(10.0),))])
        with pytest.raises(RobotError) as exc:
            program.plc_tick(0, fb(RobotState.ERROR, err=2))
        assert exc.value.code == 2

    def test_late_blend_cannot_strand_the_committed_speed(self):
        """Records 107-111 of a generated 250-record skill (stream workload,
        seed 51, sample 342), entered at rest.  Record 1 activates seeing
        records 1-3 and commits about 1950 mm/s into corner 1-2.  The
        circular pair arriving next adds a slow arc at corner 3-4 whose
        truncation lowers the speed corner 2-3 can carry, below what
        record 2 can shed in its 0.46 mm.  The executor must degrade the
        newly visible corner instead of failing on the committed speed."""
        v, a = 4000.0, 4.0e6
        lin_ = MotionType.LIN_CARTESIAN
        motions = (
            MotionCommand(
                lin_, Pose(3.1401114755199875, -4.7459954199602565, -16.2921409612933),
                v, a, 0.1990654018707272,
            ),
            MotionCommand(
                lin_, Pose(3.5817577225729833, -4.3661350751348555, -16.60157056246776),
                v, a, 0.24977681728065276,
            ),
            MotionCommand(
                lin_, Pose(3.9755232542750614, -4.297482260302284, -16.9281095433665),
                v, a, 0.17922269802542307,
            ),
            MotionCommand(
                MotionType.CIRCULAR,
                Pose(1.1703471781137793, -2.1124671605611547, -13.591159277876054),
                v, a, 0.0,
                aux_point=(1.744086586974372, -2.5940767263859925, -16.471317492912725),
            ),
        )
        recs = explode_plan(motions)
        start = tuple(f32(c) for c in (2.2591163002887282, -5.439660245641651, -16.20350944865369))
        ex = RobotExecutor(initial_pose=start + (0.0,) * 3, capture=True)
        ex.tick(0, start_image(recs, loaded=3))  # record 1 activates with records 1-3 visible
        full = start_image(recs, loaded=5, seq=2)
        t = 4000
        while ex.state is RobotState.RUNNING and t < 100_000:
            ex.tick(t, full)
            t += 4000
        assert ex.state is RobotState.DONE
        assert [(f, n, target) for f, n, target, _d in ex.executed] == [
            (1, 1, recs[0].target),
            (2, 1, recs[1].target),
            (3, 1, recs[2].target),
            (4, 2, recs[4].target),
        ]
        assert ex.pose == recs[4].target

    def test_elapsed_requires_a_completed_window(self):
        program = ContinuousMotionProgram([ContinuousSkillPlan((lin(10.0),))])
        with pytest.raises(RuntimeError):
            program.elapsed_ms


# --- streamed vs direct handoff -------------------------------------------------


def rebase_records(entries, plans):
    """Map per-skill record indices onto the concatenated stream numbering."""
    counts = [p.record_count for p in plans]
    out = []
    offset = 0
    k = 0
    seen = 0
    for first, n, target, dur in entries:
        if seen >= counts[k]:
            offset += counts[k]
            k += 1
            seen = 0
        out.append((first + offset, n, target, dur))
        seen = first + n - 1
    return out


def test_benchmark_plans_stream_identically_to_handoff():
    """The full benchmark motion set: identical record flow AND durations."""
    plans = build_plans(SETUP_A)
    program = ContinuousMotionProgram(plans)
    ex = RobotExecutor(initial_pose=SETUP_A.start.components(), capture=True)
    check_window(run(program, ex).trace)
    native = native_baseline(plans, initial_pose=SETUP_A.start.components())
    assert rebase_records(ex.executed, plans) == native.executed
    assert ex.pose == native.pose
    assert ex.fallback_stops == 0
    assert program.plc.skills_completed == len(plans)

def test_native_executor_joins_each_circular_pair():
    plans = [
        ContinuousSkillPlan((lin(10.0, approx=1.0), arc(20.0, (15.0, 5.0, 0.0)))),
        ContinuousSkillPlan((lin(30.0),)),
    ]
    ex = NativeExecutor(plans, capture=True)
    start = encode_command_frame(CommandFrame(command=CommandWord.START))
    t = 0
    while ex.state is not RobotState.DONE and t < 10_000_000:
        ex.tick(t, start)
        t += 4000
    recs = [rec for p in plans for rec in explode_plan(p.motions)]
    # one consecutive numbering across the plans
    assert [(f, n, target) for f, n, target, _d in ex.executed] == [
        (1, 1, recs[0].target),
        (2, 2, recs[2].target),
        (4, 1, recs[3].target),
    ]


def test_single_motion_program_runs_every_motion_alone():
    plans = build_plans(SETUP_A)
    program = SkillProgram(single_motion_skills(plans))
    ex = RobotExecutor(initial_pose=SETUP_A.start.components(), capture=True)
    run(program, ex)
    n_motions = sum(len(p.motions) for p in plans)
    assert program.plc.skills_completed == n_motions
    # every skill starts at record 1 and runs exactly one motion
    assert all(first == 1 for first, _n, _t, _d in ex.executed)
    assert len(ex.executed) == n_motions
    assert ex.pose == native_baseline(plans, SETUP_A.start.components()).pose



def test_single_motion_skills_send_every_approx_as_plus_zero():
    # MotionCommand accepts -0.0; a single-motion skill sends it as +0.0,
    # the same image as a motion built with approx 0.0
    motions = (lin(10.0, approx=-0.0), lin(20.0, approx=2.5), lin(30.0), lin(40.0, approx=-0.0))
    assert encode_plan([motions[0]])[0][36:40] == struct.pack("<f", -0.0)
    program = SkillProgram(single_motion_skills([ContinuousSkillPlan(motions)]))
    stopped = [replace(m, approx_distance=0.0) for m in motions]
    assert program._skills == tuple(tuple(encode_plan([m])) for m in stopped)
    assert all(image[36:40] == bytes(4) for (image,) in program._skills)


def plc_state(program):
    """Everything a PLC tick can change, compared by value."""
    own = {k: v for k, v in vars(program).items() if k != "plc"}
    return own, vars(program.plc)


class _Repeated:
    """Forwards a program and, after each of its ticks, takes a full tick on
    a deep copy of it with the same feedback frame, which must return the
    same image and change nothing."""

    def __init__(self, inner):
        self._inner = inner
        self.checked = self.published = self.refills = 0

    def plc_tick(self, t_us, fb):
        inner = self._inner
        before = inner.plc.image
        cmd = inner.plc_tick(t_us, fb)
        again = copy.deepcopy(inner)
        assert again.plc_tick(t_us + 1000, fb) is cmd
        assert plc_state(again) == plc_state(inner)
        self.checked += 1
        if cmd is not before:
            self.published += 1
            # a refill: a START image loading further within the skill
            new, old = decode_command_header(cmd), decode_command_header(before)
            self.refills += (
                new.command is old.command is CommandWord.START
                and new.loaded_through > old.loaded_through
            )
        return cmd

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("case", ["rc", "sm", "cm", "b-rc", "b-sm", "b-cm", "stream"])
def test_a_repeated_tick_changes_nothing(case):
    # the contract that lets run tick the PLC only after a feedback
    # delivery: a second full tick on the same feedback is a no-op
    if case == "stream":
        plans = [ContinuousSkillPlan(tuple(random_motions(random.Random(3), 40)))]
        pose, etype = ORIGIN.components(), ExecutionType.CM
    else:
        setup = SETUP_B if case.startswith("b-") else SETUP_A
        plans = build_plans(setup)
        pose, etype = setup.start.components(), ExecutionType(case[-2:])
    program, executor = _build_run(compile_plans(plans), pose, etype)
    repeated = _Repeated(program)
    run(repeated, executor)
    assert repeated.checked >= 10
    # the checked ticks include those that publish: START and the IDLE word
    # of every skill and, where a skill outgrows the five slots, its refills
    assert repeated.published >= 2 * program.plc.skills_completed
    assert repeated.refills > 0 if case == "stream" else repeated.refills == 0


def motion_us(executor):
    """Executed motion time, in µs, summed over the run."""
    return sum(dur for _first, _n, _target, dur in executor.executed)


def exact_stops_us(plan):
    """Motion time of ``plan`` run natively with an exact stop at every corner."""
    motions = tuple(replace(m, approx_distance=0.0) for m in plan.motions)
    return motion_us(native_baseline([ContinuousSkillPlan(motions)]))


def stream_vs_handoff(seed, total_range=(1, 25)):
    rng = random.Random(seed)
    total = rng.randint(*total_range)
    plan = ContinuousSkillPlan(tuple(random_motions(rng, total)))
    program = ContinuousMotionProgram([plan])
    ex = RobotExecutor(capture=True)
    check_window(run(program, ex).trace)
    native = native_baseline([plan])
    assert consumed(ex) == consumed(native)
    assert ex.pose == native.pose
    assert motion_us(native) <= motion_us(ex) <= exact_stops_us(plan)
    assert decode_command_frame(program.plc.image).command is CommandWord.IDLE


def test_random_plans_stream_equivalently():
    for seed in range(60):
        stream_vs_handoff(seed)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_stream_equivalence_property(seed):
    stream_vs_handoff(seed, total_range=(1, 12))


def test_slow_plc_cycle_starves_but_stays_correct():
    """A 50 ms PLC task keeps the robot starving between refills: fallbacks
    occur, no error is raised, and the record sequence stays identical."""
    for seed in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
        rng = random.Random(seed)
        plan = ContinuousSkillPlan(tuple(random_motions(rng, rng.randint(8, 16))))
        program = ContinuousMotionProgram([plan])
        ex = RobotExecutor(capture=True)
        run(program, ex, SimConfig(plc_cycle_us=50000))
        native = native_baseline([plan])
        assert consumed(ex) == consumed(native)
        assert ex.pose == native.pose
        assert motion_us(native) <= motion_us(ex) <= exact_stops_us(plan)
        if plan.record_count > SLOT_COUNT:
            assert ex.fallback_stops > 0
