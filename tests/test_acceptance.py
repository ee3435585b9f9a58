"""Acceptance gate: one test per shipping criterion, pinned tolerances.

Each test states its full requirement, including the wall-clock budget it
must meet on a stock CI container.  Oracles are independent of the code
under test: numerical integration for timing, the direct in-memory handoff
for streaming, frozen byte fixtures for the codec.
"""

import dataclasses
import math
import random
import time

import numpy as np

from skillbench.bench import (
    SETUP_A,
    SETUP_B,
    build_plans,
    compute_improvement,
    raw_csv,
    run_benchmark,
    summary_csv,
)
from skillbench.core import (
    ContinuousSkillPlan,
    ExecutionType,
    MotionCommand,
    Pose,
    turn_angle,
)
from skillbench.fieldbus_sim import SimConfig, run
from skillbench.planner import plan_waypoints
from skillbench.plc_trigger import ContinuousMotionProgram, PlcSkillInstance
from skillbench.robot_executor import RobotExecutor
from skillbench.trajectory import blend_geometry, segment_time
from skillbench.wire import (
    FRAME_SIZE,
    RECORD_SIZE,
    SLOT_COUNT,
    CommandFrame,
    CommandWord,
    FeedbackFrame,
    MotionRecord,
    MotionType,
    RobotState,
    decode_command_frame,
    decode_feedback_frame,
    decode_record,
    encode_command_frame,
    encode_feedback_frame,
    encode_record,
    explode_plan,
    f32,
)

from stream_harness import check_window, consumed, native_baseline, random_motions
from test_protocol import exact_stops_us, motion_us, rebase_records
from test_trajectory import (
    _points_segment_distance,
    group_profile,
    integrated_time,
    random_feasible_segment,
    random_group,
    sample_arc,
    total_time,
)
from test_wire import _fixture_lines


def test_criterion_1_improvement_formula():
    """(AET_SM - AET_CM) / AET_SM reproduces the two published pairs to
    within 5e-4, in under a millisecond."""
    t0 = time.perf_counter()
    first = compute_improvement(6477.0, 3729.0)
    second = compute_improvement(8971.0, 7617.0)
    elapsed = time.perf_counter() - t0
    assert abs(first - 0.4243) <= 5e-4
    assert abs(second - 0.1509) <= 5e-4
    assert elapsed < 1e-3


def test_criterion_2_streaming_matches_direct_handoff():
    """500 random plans of 1..200 records (circular pairs included) streamed
    through the 5-slot window consume exactly the record sequence of the
    direct handoff, with zero window violations, in under 10 s.  Each
    plan's executed motion time lies between the handoff's and that of
    exact stops at every corner; that oracle runs outside the 10 s."""
    t0 = time.perf_counter()
    rng = random.Random(0xC2)
    totals = [1, 2, 200] + [rng.randint(1, 200) for _ in range(497)]
    circ_seen = 0
    motion_times = []
    for total in totals:
        motions = random_motions(rng, total)
        circ_seen += sum(1 for m in motions if m.motion_type is MotionType.CIRCULAR)
        plan = ContinuousSkillPlan(tuple(motions))
        assert plan.record_count == total
        program = ContinuousMotionProgram([plan])
        ex = RobotExecutor(capture=True)
        check_window(run(program, ex).trace)  # raises on any slot-window violation
        native = native_baseline([plan])
        assert consumed(ex) == consumed(native)
        assert ex.pose == native.pose
        motion_times.append((plan, motion_us(native), motion_us(ex)))
    assert circ_seen > 100
    elapsed = time.perf_counter() - t0
    for plan, native_us, streamed_us in motion_times:
        assert native_us <= streamed_us <= exact_stops_us(plan)
    assert elapsed < 10.0, f"500 streamed plans took {elapsed:.2f}s"


def _random_record(rng: random.Random) -> MotionRecord:
    mtype = MotionType(rng.randint(1, 6))
    cont = mtype is MotionType.CIRCULAR and rng.random() < 0.5
    scalars = [f32(rng.uniform(-1e6, 1e6)) for _ in range(9)]
    if cont:
        scalars[3] = scalars[4] = scalars[5] = 0.0
    return MotionRecord(
        motion_type=mtype,
        record_seq=rng.randint(0, 0xFFFF),
        target=tuple(scalars[:6]),
        velocity=scalars[6],
        acceleration=scalars[7],
        approx_distance=scalars[8],
        tool_frame=rng.randint(0, 255),
        base_frame=rng.randint(0, 255),
        force_setpoint=rng.randint(0, 0xFFFF),
        joint_target=mtype is MotionType.PTP_JOINT,
        continuation=cont,
    )


def test_criterion_3_codec_round_trips_and_golden_bytes():
    """10,000 random records and 2,000 of each frame kind round trip
    bit-exactly at 44/256 bytes, the frozen fixtures still decode and
    re-encode to the same bytes, all in under 5 s."""
    t0 = time.perf_counter()
    rng = random.Random(0xC3)
    recent = []
    frames = 0
    for i in range(10_000):
        rec = _random_record(rng)
        blob = encode_record(rec)
        assert len(blob) == RECORD_SIZE
        assert decode_record(blob) == rec
        recent.append(blob)
        if len(recent) == SLOT_COUNT:
            total = rng.randint(SLOT_COUNT, 2**32 - 1)
            cmd = CommandFrame(
                command=CommandWord(rng.randint(0, 2)),
                record_count=rng.randint(0, SLOT_COUNT),
                total_no=total,
                loaded_through=rng.randint(0, min(total, 2**32 - 1)),
                frame_seq=rng.randint(0, 0xFFFF),
                slots=tuple(recent),
            )
            cmd_blob = encode_command_frame(cmd)
            assert len(cmd_blob) == FRAME_SIZE
            assert decode_command_frame(cmd_blob) == cmd
            fb = FeedbackFrame(
                state=RobotState(rng.randint(0, 5)),
                error_code=rng.randint(0, 255),
                cur_exec=rng.randint(0, 2**32 - 1),
                acked_seq=rng.randint(0, 0xFFFF),
                pose=tuple(f32(rng.uniform(-1e4, 1e4)) for _ in range(6)),
            )
            fb_blob = encode_feedback_frame(fb)
            assert len(fb_blob) == FRAME_SIZE
            assert decode_feedback_frame(fb_blob) == fb
            frames += 1
            recent.clear()
    assert frames == 2_000

    # frozen fixtures: the scenario's records and a mid-stream frame pair
    plans = build_plans(SETUP_A)
    recs = [r for p in plans for r in explode_plan(p.motions)]
    assert [encode_record(r).hex() for r in recs] == _fixture_lines("golden_records.hex")
    plc = PlcSkillInstance()
    plc.start_skill(plans[1])
    cmd_line, fb_line = _fixture_lines("golden_frames.hex")
    assert plc.image.hex() == cmd_line
    fixture_fb = decode_feedback_frame(bytes.fromhex(fb_line))
    assert encode_feedback_frame(fixture_fb).hex() == fb_line
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"codec round trips took {elapsed:.2f}s"


def test_criterion_4_timing_model_against_integration():
    """1,000 random segments match the numerically integrated speed
    limit curve to 1e-6 s; sampled blend arcs never leave the approx tube;
    blending never loses to stopping; all in under 10 s."""
    t0 = time.perf_counter()

    rng = random.Random(0xC4)
    worst = 0.0
    for _ in range(1_000):
        seg = random_feasible_segment(rng)
        got = segment_time(*seg)
        want = integrated_time(*seg)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-6, f"worst timing deviation {worst}"

    checked = 0
    while checked < 120:
        corner = np.array([rng.uniform(-50, 50) for _ in range(3)])
        d1 = np.array([rng.gauss(0, 1) for _ in range(3)])
        d2 = np.array([rng.gauss(0, 1) for _ in range(3)])
        if min(np.linalg.norm(d1), np.linalg.norm(d2)) < 1e-3:
            continue
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        angle = math.atan2(np.linalg.norm(np.cross(d1, d2)), float(np.dot(d1, d2)))
        if angle <= 1e-2 or angle >= math.pi - 1e-2:
            continue
        prev = corner - d1 * rng.uniform(30.0, 100.0)
        nxt = corner + d2 * rng.uniform(30.0, 100.0)
        approx = rng.uniform(0.5, 10.0)
        geom = blend_geometry(angle, approx, 250.0, 250.0, 2000.0)
        pts, _center = sample_arc(prev, corner, nxt, geom)
        dev = float(
            np.max(
                np.minimum(
                    _points_segment_distance(pts, prev, corner),
                    _points_segment_distance(pts, corner, nxt),
                )
            )
        )
        assert dev <= approx + 1e-9
        checked += 1

    for _ in range(200):
        plan, wps = random_group(rng)
        blended = total_time(group_profile(plan, wps)[2])
        stops = total_time(group_profile(plan, wps, blending=False)[2])
        assert blended <= stops + 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"timing checks took {elapsed:.2f}s"


def test_criterion_5_scenario_plan_shape():
    """The default pick and place plans into exactly 3 continuous groups of
    11 records total, group boundaries fall on grip/release, and every
    pre/post move continues its primary path collinearly (<= 1e-9 rad)."""
    plans = build_plans(SETUP_A)
    chains = plan_waypoints(plans, SETUP_A.start)
    assert len(plans) == 3
    assert [p.record_count for p in plans] == [3, 5, 3]
    assert sum(p.record_count for p in plans) == 11
    assert plans[0].terminal_action == "grip"
    assert plans[1].terminal_action == "release"
    assert plans[2].terminal_action is None
    assert chains[0][-1] == SETUP_A.pick
    assert chains[1][-1] == SETUP_A.place
    assert chains[2][-1] == SETUP_A.start

    # pre/post junctions sit at carrier height above the pick/place points
    junctions = 0
    for chain in chains:
        for i in range(1, len(chain) - 1):
            if chain[i].z == SETUP_A.carrier_height:
                p, c, n = (chain[k].position for k in (i - 1, i, i + 1))
                assert p != c != n and turn_angle(p, c, n) <= 1e-9
                junctions += 1
    assert junctions == 4


def test_criterion_6_benchmark_orderings():
    """Both setups, 25 repetitions each: single-motion skills are slower
    than continuous ones, the continuous overhead over the native program
    stays within 1%, and the improvement lands in [0.10, 0.60]; under 30 s."""
    t0 = time.perf_counter()
    for cfg in (SETUP_A, SETUP_B):
        report = run_benchmark(cfg, reps=25, seed=0)
        rc = report.stats[ExecutionType.RC].aet_ms
        sm = report.stats[ExecutionType.SM].aet_ms
        cm = report.stats[ExecutionType.CM].aet_ms
        assert sm > cm, f"setup {cfg.name}: SM {sm} not slower than CM {cm}"
        assert (cm - rc) / rc <= 0.01, f"setup {cfg.name}: CM overhead {(cm - rc) / rc}"
        assert 0.10 <= report.aet_i <= 0.60, f"setup {cfg.name}: aet_i {report.aet_i}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"benchmark runs took {elapsed:.2f}s"


def test_criterion_7_deterministic_replay():
    """Re-running with the same seed reproduces the bus trace and both CSV
    reports byte for byte."""
    def measure():
        report = run_benchmark(SETUP_A, reps=5, seed=123)
        return (
            report.last_trace.export_text(),
            raw_csv([report]),
            summary_csv([report]),
        )

    first = measure()
    second = measure()
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_criterion_8_slow_bus_degrades_gracefully():
    """A 500 ms bus starves the window mid-plan: the executor inserts
    exact-stop fallbacks, raises no error, and still consumes the oracle's
    record sequence.  With default cycle times the benchmark scenario runs
    with zero fallback stops."""
    # 12 blended zigzag hops: more records than slots, ~140 ms each, so the
    # robot outruns the window without ever starving into the 1 s limit
    motions = []
    for i in range(12):
        x = 10.0 * (i // 2 + 1)
        y = 10.0 * ((i + 1) // 2)
        motions.append(
            MotionCommand(
                motion_type=MotionType.LIN_CARTESIAN,
                target=Pose(x, y, 0.0),
                velocity=250.0,
                acceleration=2000.0,
                approx_distance=0.0 if i == 11 else 2.0,
            )
        )
    long_plan = ContinuousSkillPlan(tuple(motions))
    native = native_baseline([long_plan])

    program = ContinuousMotionProgram([long_plan])
    ex = RobotExecutor(capture=True)
    run(program, ex, SimConfig(bus_cycle_us=500_000))
    assert ex.fallback_stops > 0
    assert consumed(ex) == consumed(native)
    assert ex.pose == native.pose
    assert program.plc.skills_completed == 1
    assert program.plc.last_error is None

    program = ContinuousMotionProgram([long_plan])
    ex = RobotExecutor(capture=True)
    run(program, ex, SimConfig())
    assert ex.fallback_stops == 0
    assert consumed(ex) == consumed(native)

    plans = build_plans(SETUP_A)
    bench_native = native_baseline(plans, initial_pose=SETUP_A.start.components())
    program = ContinuousMotionProgram(plans)
    ex = RobotExecutor(initial_pose=SETUP_A.start.components(), capture=True)
    run(program, ex, SimConfig())
    assert ex.fallback_stops == 0
    # per-skill numbering vs one concatenated native stream
    assert rebase_records(ex.executed, plans) == bench_native.executed
    assert ex.pose == bench_native.pose
