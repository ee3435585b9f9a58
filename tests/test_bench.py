"""Benchmark scenario, statistics, report rendering, and the CLI."""

import csv
import dataclasses
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import skillbench
from skillbench import robot_executor
from skillbench.bench import (
    SETUP_A,
    SETUP_B,
    CompiledSetup,
    EtypeStats,
    MeasurementReport,
    ScenarioConfig,
    _build_run,
    build_plans,
    build_scenario,
    compile_plans,
    compile_setup,
    compute_improvement,
    mad,
    parse_scenario,
    raw_csv,
    render_table,
    run_benchmark,
    serialize_scenario,
    summary_csv,
)
from skillbench.cli import main
from skillbench.core import ContinuousSkillPlan, ExecutionType, MotionCommand, MotionType, Pose
from skillbench.fieldbus_sim import SimConfig, run
from skillbench.planner import PlanningConfig, StepKind, plan
from skillbench.plc_trigger import (
    ContinuousMotionProgram,
    NativeTriggerProgram,
    SkillProgram,
    continuous_skills,
    single_motion_skills,
)
from skillbench.robot_executor import NativeExecutor, RobotExecutor
from skillbench.wire import CommandFrame, MotionRecord
from test_sim import count_wire_calls


# SimTrace.digest() of the last CM repetition of run_benchmark(setup, reps=25,
# seed=0): repetition 24 of seed 0
LAST_TRACE_DIGEST_A = "e7e5ff2ab1704926eaf0c6b3a761e45e82eb9cdfd416a31832828002421e2b9d"
LAST_TRACE_DIGEST_B = "595138138148bcb830af98d30eae2d28b3ce2597ac5d724b0e769f7ebf0452c9"
# the same for run_benchmark(setup, etypes=(etype,), reps=25, seed=0)
LAST_RC_SM_DIGESTS = {
    ("a", ExecutionType.RC): "286fb91b7ab78b6ac05babcf3bc25e977da717ac118a756532d42b7276928810",
    ("a", ExecutionType.SM): "111ac07e688d0782606a96bb0f92f8300bf95af96d24ff0c6b7a7eb3198098e1",
    ("b", ExecutionType.RC): "a6fc0b483a39791313ad1bef4866110f997ec6b54dac282c8260478d277d9521",
    ("b", ExecutionType.SM): "d1857c03865bd93cbde67ad5d64317e8e6c53c950d63c5cd25381a25117e13a4",
}
# a SHA-256 prefix of the repr of the executed motions' durations in µs,
# one list per repetition 0-4 of seed 0.  AETs and traces see a motion
# only at the 4 ms grid of the robot cycle; the durations see every µs
DURATIONS_SHA = {
    ("a", ExecutionType.RC): "0c6abbd4f9a0bc1f",
    ("a", ExecutionType.SM): "0e7dd93f54fda9be",
    ("a", ExecutionType.CM): "0c6abbd4f9a0bc1f",
    ("b", ExecutionType.RC): "9d81f5e77c63d5a4",
    ("b", ExecutionType.SM): "4825116ade00d3b4",
    ("b", ExecutionType.CM): "9d81f5e77c63d5a4",
}


# --- statistics -----------------------------------------------------------------


class TestStats:
    def test_mad_pinned(self):
        assert mad([1.0, 2.0, 3.0, 4.0]) == 1.0
        assert mad([5.0]) == 0.0
        assert mad([3.0, 3.0, 3.0]) == 0.0

    def test_mad_empty_rejected(self):
        with pytest.raises(ValueError):
            mad([])

    def test_improvement_pinned(self):
        assert compute_improvement(6477.0, 3729.0) == pytest.approx(0.4243, abs=5e-4)
        assert compute_improvement(8971.0, 7617.0) == pytest.approx(0.1509, abs=5e-4)

    def test_improvement_sign_conventions(self):
        assert compute_improvement(100.0, 100.0) == 0.0
        assert compute_improvement(100.0, 120.0) < 0.0
        with pytest.raises(ValueError):
            compute_improvement(0.0, 10.0)

    def test_etype_stats_derive_from_samples(self):
        st = EtypeStats(etype=ExecutionType.CM, samples=(10.0, 12.0, 14.0))
        assert st.aet_ms == 12.0
        assert st.mad_ms == pytest.approx(4.0 / 3.0)

    def test_report_improvement_needs_both_types(self):
        report = MeasurementReport(setup="a", reps=1, seed=0)
        assert report.aet_i is None
        report.stats[ExecutionType.SM] = EtypeStats(ExecutionType.SM, (100.0,))
        assert report.aet_i is None
        report.stats[ExecutionType.CM] = EtypeStats(ExecutionType.CM, (80.0,))
        assert report.aet_i == pytest.approx(0.2)


# --- scenario geometry ------------------------------------------------------------


class TestScenario:
    def test_default_steps_shape(self):
        steps = build_scenario(SETUP_A)
        assert [s.kind for s in steps] == [
            StepKind.STANDSTILL_ACTION,
            StepKind.TRANSIT,
            StepKind.PRIMARY_PATH,
            StepKind.STANDSTILL_ACTION,
            StepKind.PRIMARY_PATH,
            StepKind.TRANSIT,
            StepKind.PRIMARY_PATH,
            StepKind.STANDSTILL_ACTION,
            StepKind.PRIMARY_PATH,
            StepKind.TRANSIT,
        ]
        assert [s.action for s in steps if s.kind is StepKind.STANDSTILL_ACTION] == [
            "start",
            "grip",
            "release",
        ]
        # obstacle below the transit corridor: no explicit clearance anywhere
        assert all(s.clearance is None for s in steps if s.kind is StepKind.TRANSIT)

    def test_default_plans_three_groups_eleven_records(self):
        plans = build_plans(SETUP_A)
        assert [p.record_count for p in plans] == [3, 5, 3]
        assert sum(p.record_count for p in plans) == 11
        assert plans[0].terminal_action == "grip"
        assert plans[1].terminal_action == "release"
        assert plans[2].terminal_action is None
        ends = [p.motions[-1].target for p in plans]
        assert ends == [SETUP_A.pick, SETUP_A.place, SETUP_A.start]

    def test_tall_obstacle_adds_clearance_waypoints(self):
        tall = dataclasses.replace(SETUP_A, obstacle_height=120.0)
        steps = build_scenario(tall)
        carry, back = [s for s in steps if s.kind is StepKind.TRANSIT][1:]
        assert carry.clearance == back.clearance == 140.0
        plans = build_plans(tall)
        assert [p.record_count for p in plans] == [3, 6, 4]
        assert Pose(150.0, 0.0, 140.0) in [m.target for m in plans[1].motions]
        assert Pose(100.0, 0.0, 140.0) in [m.target for m in plans[2].motions]

    def test_fly_height_tracks_carrier_and_posts(self):
        assert SETUP_A.fly_height == 80.0
        taller = dataclasses.replace(SETUP_A, pre_post_length=70.0)
        assert taller.fly_height == 100.0

    def test_carrier_height_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(carrier_height=0.0)

    def test_setup_b_is_slower(self):
        assert SETUP_B.lin_velocity < SETUP_A.lin_velocity
        assert SETUP_B.name == "b"

    def test_scenario_round_trip(self):
        for cfg in (SETUP_A, SETUP_B):
            assert parse_scenario(serialize_scenario(cfg)) == cfg
        custom = dataclasses.replace(
            SETUP_A,
            name="bench-3",
            place=Pose(250.0, 40.0, 0.0, 0.0, 0.0, 90.0),
            obstacle_height=95.5,
        )
        assert parse_scenario(serialize_scenario(custom)) == custom

    @pytest.mark.parametrize(
        "name", ["a ", " a", "\ta", "a\nb", "a\r\nb", "a\x1cb", "a\u2028b", "\n", 7, None]
    )
    def test_a_name_a_scenario_file_cannot_hold_is_refused(self, name):
        with pytest.raises(ValueError, match="name must be one line"):
            ScenarioConfig(name=name)

    @given(st.text())
    def test_every_name_is_refused_or_round_trips(self, name):
        try:
            cfg = ScenarioConfig(name=name)
        except ValueError:
            assert name != name.strip() or len(name.splitlines()) > 1
            return
        assert parse_scenario(serialize_scenario(cfg)) == cfg

    def test_scenario_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scenario("name=a\nwhatever\n")
        with pytest.raises(ValueError):
            parse_scenario("unknown_field=3\n")
        with pytest.raises(ValueError, match="joint_velocity"):  # a retired key
            parse_scenario("joint_velocity=180.0\n")
        with pytest.raises(ValueError):
            parse_scenario("pick=1,2,3\n")
        for name in ("obstacle_height", "clearance_margin"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError, match=name):
                    parse_scenario(f"{name}={value}\n")

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ScenarioConfig)])
    def test_a_key_set_twice_is_refused(self, key):
        # unchecked, the last line would win: a file could say two things
        lines = serialize_scenario(SETUP_A).splitlines()
        (line,) = [ln for ln in lines if ln.startswith(f"{key}=")]
        for repeated in (line, line.replace(f"{key}=", f"{key}=1", 1)):
            with pytest.raises(ValueError, match=f"'{key}' set twice"):
                parse_scenario("\n".join(lines + [repeated]) + "\n")


# one alternative value per setting, on a base whose obstacle pokes above
# the fly height, so that clearance_margin acts
SETTING_BASE = dataclasses.replace(SETUP_A, name="settings", obstacle_height=100.0)
SCENARIO_ALTERNATIVES = {
    "start": Pose(-120.0, 10.0, 80.0),
    "pick": Pose(0.0, 20.0, 0.0),
    "place": Pose(280.0, 0.0, 0.0),
    "carrier_height": 35.0,
    "obstacle_height": 110.0,
    "clearance_margin": 25.0,
    "lin_velocity": 220.0,
    "lin_acceleration": 1500.0,
    "ptp_velocity": 220.0,
    "ptp_acceleration": 1500.0,
    "approx_distance": 5.0,
    "pre_post_length": 45.0,
}
PLANNING_ALTERNATIVES = {
    "lin_velocity": 220.0,
    "lin_acceleration": 1500.0,
    "ptp_velocity": 220.0,
    "ptp_acceleration": 1500.0,
    "default_approx": 5.0,
    "pre_post_length": 45.0,
}


class TestEverySettingActs:
    def test_the_tables_name_every_setting(self):
        scenario = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"name"}
        assert set(SCENARIO_ALTERNATIVES) == scenario
        assert set(PLANNING_ALTERNATIVES) == {f.name for f in dataclasses.fields(PlanningConfig)}

    @pytest.mark.parametrize("name", sorted(SCENARIO_ALTERNATIVES))
    def test_each_scenario_field_changes_the_compiled_setup(self, name):
        changed = dataclasses.replace(SETTING_BASE, **{name: SCENARIO_ALTERNATIVES[name]})
        assert compile_plans(build_plans(changed)) != compile_plans(build_plans(SETTING_BASE))

    @pytest.mark.parametrize("name", sorted(PLANNING_ALTERNATIVES))
    def test_each_planning_field_changes_the_plans(self, name):
        steps = build_scenario(SETTING_BASE)
        cfg = SETTING_BASE.planning_config()
        changed = dataclasses.replace(cfg, **{name: PLANNING_ALTERNATIVES[name]})
        assert plan(steps, changed) != plan(steps, cfg)


# --- measurement -------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    return run_benchmark(SETUP_A, reps=3, seed=7)


class TestBenchmark:
    def test_all_types_measured(self, small_report):
        assert set(small_report.stats) == {
            ExecutionType.RC,
            ExecutionType.SM,
            ExecutionType.CM,
        }
        assert all(len(st.samples) == 3 for st in small_report.stats.values())
        assert small_report.last_trace is not None

    def test_expected_ordering(self, small_report):
        rc = small_report.stats[ExecutionType.RC].aet_ms
        sm = small_report.stats[ExecutionType.SM].aet_ms
        cm = small_report.stats[ExecutionType.CM].aet_ms
        assert sm > cm > rc
        assert 0.10 <= small_report.aet_i <= 0.60

    def test_repetitions_are_paired_across_types(self, small_report):
        # same derived seed per rep: the protocol overhead varies, the phase
        # draws do not, so rerunning any type reproduces its samples exactly
        again = run_benchmark(SETUP_A, etypes=(ExecutionType.SM,), reps=3, seed=7)
        assert (
            again.stats[ExecutionType.SM].samples
            == small_report.stats[ExecutionType.SM].samples
        )

    def test_seed_changes_samples(self, small_report):
        other = run_benchmark(SETUP_A, etypes=(ExecutionType.CM,), reps=3, seed=8)
        assert (
            other.stats[ExecutionType.CM].samples
            != small_report.stats[ExecutionType.CM].samples
        )

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            run_benchmark(SETUP_A, reps=0)

    @pytest.mark.parametrize("reps", [True, False, 2.0, "2", None])
    def test_reps_must_be_an_int_before_the_setup_compiles(self, reps, monkeypatch):
        # unchecked, a bool would run and render as ``reps=True``, and a
        # float compile the setup and then fail in ``range``
        compiled = []
        monkeypatch.setattr(skillbench.bench, "compile_setup", compiled.append)
        with pytest.raises(ValueError, match="reps must be an int"):
            run_benchmark(SETUP_A, reps=reps)
        assert compiled == []

    @pytest.mark.parametrize("etypes", [("rc",), (ExecutionType.RC, "cm"), (None,), (1,)])
    def test_an_etype_must_be_an_execution_type_before_the_setup_compiles(
        self, etypes, monkeypatch
    ):
        # unchecked, "rc" would run as CM and report CM's AET under "rc",
        # which no table renders
        compiled = []
        monkeypatch.setattr(skillbench.bench, "compile_setup", compiled.append)
        with pytest.raises(ValueError, match="etype must be an ExecutionType"):
            run_benchmark(SETUP_A, etypes=etypes, reps=2)
        assert compiled == []

    def test_custom_cycle_times_flow_through(self):
        # the robot cycle of ``sim`` is the executors' only clock: a motion
        # rounds up to whole 12 ms cycles, not to the 4 ms default
        for cycles, aets in (
            ((1000, 1000, 12000), (5167.1, 6187.1, 5215.1)),
            ((10000, 8000, 12000), (5180.0, 6375.0, 5270.0)),
        ):
            report = run_benchmark(SETUP_A, reps=10, seed=0, sim=SimConfig(*cycles))
            got = tuple(report.stats[e].aet_ms for e in ExecutionType)
            assert got == pytest.approx(aets, abs=1e-9), cycles

    @pytest.mark.parametrize(
        "cfg, aets, digest",
        [
            (SETUP_A, (5091.4, 5971.4, 5107.4), LAST_TRACE_DIGEST_A),
            (SETUP_B, (6443.4, 7547.4, 6459.4), LAST_TRACE_DIGEST_B),
        ],
    )
    def test_reported_numbers_are_pinned(self, cfg, aets, digest):
        # the README's AET table and the trace of the last CM repetition;
        # a change to the simulator alone must leave both as they are
        report = run_benchmark(cfg, reps=25, seed=0)
        got = tuple(report.stats[e].aet_ms for e in (ExecutionType.RC, ExecutionType.SM, ExecutionType.CM))
        assert got == pytest.approx(aets, abs=1e-9)
        assert report.last_trace.digest() == digest

    @pytest.mark.parametrize("cfg", [SETUP_A, SETUP_B], ids=["a", "b"])
    @pytest.mark.parametrize("etype", [ExecutionType.RC, ExecutionType.SM], ids=["rc", "sm"])
    def test_the_last_rc_and_sm_traces_are_pinned(self, cfg, etype):
        # RC runs stored records and SM one skill per motion, each built
        # apart from CM's skills; their bytes are pinned as CM's are
        report = run_benchmark(cfg, etypes=(etype,), reps=25, seed=0)
        assert report.last_trace.digest() == LAST_RC_SM_DIGESTS[cfg.name, etype]

    @pytest.mark.parametrize("cfg", [SETUP_A, SETUP_B], ids=["a", "b"])
    @pytest.mark.parametrize("etype", list(ExecutionType), ids=lambda e: e.value)
    def test_the_executed_durations_are_pinned(self, cfg, etype):
        compiled = compile_setup(cfg)
        pose = cfg.start.components()
        durations = []
        for rep in range(5):
            program, executor = compiled_run(compiled, pose, etype)
            run(program, executor, SimConfig(seed=0, rep=rep))
            durations.append([dur_us for *_, dur_us in executor.executed])
        digest = hashlib.sha256(repr(durations).encode()).hexdigest()[:16]
        assert digest == DURATIONS_SHA[cfg.name, etype]

    def test_a_repetition_builds_no_command_frame(self, monkeypatch):
        # the PLC packs its START and IDLE images from fields it keeps in
        # range; a validated CommandFrame per handshake image cost more than
        # the packing itself
        built = []
        check = CommandFrame.__new__

        def counted(cls, *args, **kwargs):
            built.append(check(cls, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(CommandFrame, "__new__", counted)
        for cfg in (SETUP_A, SETUP_B):
            report = run_benchmark(cfg, reps=1, seed=0)
            assert set(report.stats) == set(ExecutionType)
        assert built == []
        CommandFrame()
        assert len(built) == 1  # the counter sees a construction


class TestPlanOnce:
    def test_a_setup_is_planned_once_per_process(self, monkeypatch):
        calls = []
        real_plan = skillbench.bench.plan

        def counting_plan(*args, **kwargs):
            calls.append(args)
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(skillbench.bench, "plan", counting_plan)
        compile_setup.cache_clear()
        cfg = dataclasses.replace(SETUP_A, name="memo")
        run_benchmark(cfg, reps=1, seed=0)
        run_benchmark(cfg, reps=1, seed=1)
        assert len(calls) == 1
        assert compile_setup(cfg) is compile_setup(cfg)

    def test_twins_that_compare_equal_plan_to_the_same_bytes(self):
        # -0.0 == 0.0 and 30 == 30.0, so these configs share one cache
        # entry; the trace must not depend on which one was planned first
        base = dataclasses.replace(SETUP_A, name="z", approx_distance=0.0)
        twins = (
            base,
            dataclasses.replace(base, pick=Pose(-0.0, -0.0, 0.0), approx_distance=-0.0),
            dataclasses.replace(base, carrier_height=30, lin_velocity=250, approx_distance=0),
        )
        assert len({serialize_scenario(cfg) for cfg in twins}) == 1
        digests = set()
        for first in twins:
            compile_setup.cache_clear()
            for cfg in (first, *twins):
                report = run_benchmark(cfg, etypes=(ExecutionType.CM,), reps=1)
                digests.add(report.last_trace.digest())
        assert len(digests) == 1

    def test_an_equal_config_gets_equal_frozen_plans(self):
        compile_setup.cache_clear()
        compiled = compile_setup(SETUP_A)
        compile_setup.cache_clear()
        copy = parse_scenario(serialize_scenario(SETUP_A))
        assert copy is not SETUP_A
        assert compile_setup(copy) == compiled
        assert compile_setup(SETUP_A) is compile_setup(copy)
        # the plans are frozen, so nothing compiled from them can grow
        plans = build_plans(SETUP_A)
        assert plans == build_plans(copy)
        assert type(plans) is tuple
        assert all(type(p) is ContinuousSkillPlan for p in plans)


def plan_run(plans, pose, etype):
    """A repetition built from the plans, the executor capturing."""
    if etype is ExecutionType.RC:
        return NativeTriggerProgram(), NativeExecutor(plans, initial_pose=pose, capture=True)
    if etype is ExecutionType.SM:
        program = SkillProgram(single_motion_skills(plans))
    else:
        program = ContinuousMotionProgram(plans)
    return program, RobotExecutor(initial_pose=pose, capture=True)


def compiled_run(compiled, pose, etype):
    """``_build_run``'s repetition from a compiled setup, the executor
    capturing."""
    program, executor = _build_run(compiled, pose, etype)
    executor._captured = []
    return program, executor


class TestCompileOnce:
    def test_a_setup_is_compiled_once_per_process(self, monkeypatch):
        calls = []
        real_compile = skillbench.bench.compile_plans

        def counting_compile(plans):
            calls.append(plans)
            return real_compile(plans)

        monkeypatch.setattr(skillbench.bench, "compile_plans", counting_compile)
        compile_setup.cache_clear()
        cfg = dataclasses.replace(SETUP_A, name="compile-memo")
        run_benchmark(cfg, reps=1, seed=0)
        run_benchmark(cfg, reps=2, seed=1)
        assert calls == [build_plans(cfg)]
        assert compile_setup(cfg) is compile_setup(cfg)

    def test_warm_repetitions_encode_and_explode_nothing(self, monkeypatch):
        for cfg in (SETUP_A, SETUP_B):
            run_benchmark(cfg, reps=1, seed=0)
        calls = [count_wire_calls(monkeypatch, f) for f in ("encode_plan", "explode_plan")]
        for cfg in (SETUP_A, SETUP_B):
            for etype in ExecutionType:
                run_benchmark(cfg, etypes=(etype,), reps=2, seed=3)
        assert calls == [[], []]
        compile_plans(build_plans(SETUP_A))
        assert all(calls)  # the counters see a compile

    def test_the_compiled_setup_is_tuples_the_runs_share(self):
        compiled = compile_setup(SETUP_A)
        assert isinstance(compiled, tuple)
        assert type(compiled.records) is tuple
        assert all(type(rec) is MotionRecord for rec in compiled.records)
        for skills in (compiled.single_motion, compiled.continuous):
            assert type(skills) is tuple
            assert all(type(skill) is tuple for skill in skills)
            assert all(type(image) is bytes for skill in skills for image in skill)
        pose = SETUP_A.start.components()
        _, executor = _build_run(compiled, pose, ExecutionType.RC)
        assert executor._records is compiled.records
        program, _ = _build_run(compiled, pose, ExecutionType.SM)
        assert program._skills is compiled.single_motion
        program, _ = _build_run(compiled, pose, ExecutionType.CM)
        assert program._skills is compiled.continuous

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("cfg", [SETUP_A, SETUP_B], ids=["a", "b"])
    def test_the_compiled_setup_runs_as_its_plans_do(self, cfg, seed):
        plans = build_plans(cfg)
        compiled = compile_setup(cfg)
        pose = cfg.start.components()
        for etype in ExecutionType:
            report = run_benchmark(cfg, etypes=(etype,), reps=3, seed=seed)
            for rep in range(3):
                sim = SimConfig(seed=seed, rep=rep)
                runs = []
                for program, executor in (
                    plan_run(plans, pose, etype),
                    compiled_run(compiled, pose, etype),
                ):
                    digest = run(program, executor, sim).trace.digest()
                    runs.append((program.elapsed_ms, executor.executed, digest))
                assert runs[0] == runs[1]
                assert runs[0][0] == report.stats[etype].samples[rep]
            assert runs[0][2] == report.last_trace.digest()

    def test_warm_repetitions_solve_no_window(self, solve_calls):
        # RC and CM solve the same three windows per setup, SM none; the
        # fixture clears the cache of solved windows, so the first call is cold
        cache = robot_executor._solve_window
        for size, cfg in ((3, SETUP_A), (6, SETUP_B)):
            solve_calls.clear()
            run_benchmark(cfg, reps=2, seed=0)
            assert len(solve_calls) == 3
            assert cache.cache_info().currsize == size
            solve_calls.clear()
            run_benchmark(cfg, reps=3, seed=4, sim=SimConfig(plc_cycle_us=4000))
            assert solve_calls == []

    def test_a_round_of_both_setups_keeps_every_window(self, solve_calls):
        # perfbench's pickplace order: setup A under RC, SM and CM, then B,
        # then A again; its second round finds all six windows cached
        for cfg in (SETUP_A, SETUP_B):
            run_benchmark(cfg, reps=1, seed=0)
        assert len(set(solve_calls)) == len(solve_calls) == 6
        solve_calls.clear()
        run_benchmark(SETUP_A, reps=1, seed=1)
        assert solve_calls == []

    def test_a_solve_that_raises_caches_nothing(self, solve_calls, monkeypatch):
        cache = robot_executor._solve_window
        run_benchmark(SETUP_B, etypes=(ExecutionType.CM,), reps=1)
        size = cache.cache_info().currsize
        compiled = compile_setup(SETUP_A)
        pose = SETUP_A.start.components()
        recording = robot_executor.solve_corners

        def failing(*args):
            raise ValueError("no solve")

        monkeypatch.setattr(robot_executor, "solve_corners", failing)
        with pytest.raises(ValueError, match="no solve"):
            run(*_build_run(compiled, pose, ExecutionType.CM), SimConfig())
        assert cache.cache_info().currsize == size == 3
        monkeypatch.setattr(robot_executor, "solve_corners", recording)
        solve_calls.clear()
        run(*_build_run(compiled, pose, ExecutionType.CM), SimConfig())
        assert len(solve_calls) == 3

    @pytest.mark.parametrize("outer", list(ExecutionType), ids=lambda e: e.value)
    def test_runs_interleaved_on_one_compile_replay_separate_compiles(self, outer):
        # before each PLC tick of one run, a whole other run, of each type
        # in turn, executes from the same compiled tuples; the outer run's
        # PLC is then mid-skill on one of them
        plans = build_plans(SETUP_A)
        pose = SETUP_A.start.components()
        shared = compile_plans(plans)
        inner = []
        program, executor = _build_run(shared, pose, outer)
        tick = program.plc_tick

        def run_another_then_tick(t_us, fb):
            etype = tuple(ExecutionType)[len(inner) % 3]
            rep = len(inner) + 1
            other = run(*_build_run(shared, pose, etype), SimConfig(rep=rep))
            inner.append((etype, rep, other.trace.digest()))
            return tick(t_us, fb)

        program.plc_tick = run_another_then_tick
        digest = run(program, executor, SimConfig(rep=0)).trace.digest()

        def separate(etype, rep):
            return run(
                *_build_run(compile_plans(plans), pose, etype), SimConfig(rep=rep)
            ).trace.digest()

        assert len(inner) >= 5
        assert digest == separate(outer, 0)
        assert [d for _, _, d in inner] == [separate(etype, rep) for etype, rep, _ in inner]


LIN = MotionType.LIN_CARTESIAN
KEY_FIELDS = ("lengths", "vmaxes", "accels", "blends", "entry_speed", "entry_trunc")


def bent_path(first_leg=100.0, velocity=(), accel=(), approx=()):
    """Eight LIN motions, more than one START image holds: a 90 degree
    corner with a 2 mm approx after the first, whose blend speed sits below
    every velocity, then 100 mm legs turning by 0.05 rad, gentle enough
    that each blend runs at the slower velocity.  ``velocity``, ``accel``
    and ``approx`` are ``(motion, value)`` changes of the defaults."""
    vs, accs, aps = [250.0] * 8, [2000.0] * 8, [2.0] * 7 + [0.0]
    accs[1] = 1500.0  # the first corner's blend is timed with it
    for values, changes in ((vs, velocity), (accs, accel), (aps, approx)):
        for i, value in changes:
            values[i] = value
    x, y, heading = first_leg, 0.0, math.pi / 2
    motions = []
    for i in range(8):
        motions.append(MotionCommand(LIN, Pose(x, y, 0.0), vs[i], accs[i], aps[i]))
        x, y = x + 100.0 * math.cos(heading), y + 100.0 * math.sin(heading)
        heading += 0.05 if i % 2 else -0.05
    return ContinuousSkillPlan(tuple(motions))


def wiggle(motions=12):
    """Short legs with slight bends: where the PLC's refills land decides
    which windows are solved and at which speeds they are entered."""
    return ContinuousSkillPlan(
        tuple(
            MotionCommand(LIN, Pose(i + 1.0, 0.1 * (i % 2), 0.0), 2000.0, 1e5, approx)
            for i, approx in enumerate([0.2] * (motions - 1) + [0.0])
        )
    )


class TestSolvedWindows:
    def test_a_warm_cache_runs_as_a_cleared_one(self, solve_calls):
        """A CM run of a streamed skill, built as ``_build_run`` builds a
        repetition, on the warm cache of solved windows equals the same run
        after ``cache_clear()``.  Each variant of ``bent_path`` changes one
        solver input of a window that the base path also solves: the
        length, velocity or acceleration of its first motion, the approx of
        an inner corner, or the velocity or approx of the corner that
        enters a window solved on the move.  So the runs solve windows that
        differ in only one key field, for every field, and the warm runs
        look windows up among them."""
        plans = (
            bent_path(),
            bent_path(first_leg=120.0),
            bent_path(velocity=[(0, 200.0)]),
            bent_path(accel=[(0, 3000.0)]),
            bent_path(approx=[(2, 3.0)]),
            bent_path(velocity=[(1, 220.0)]),
            bent_path(approx=[(1, 3.0)]),
            wiggle(),
        )
        triples = ((1000, 1000, 4000), (4000, 2000, 4000), (2000, 1000, 2000))
        cache = robot_executor._solve_window
        warm_hits = 0

        def one_run(compiled, sim):
            program, executor = compiled_run(compiled, (0.0,) * 6, ExecutionType.CM)
            digest = run(program, executor, sim).trace.digest()
            return program.elapsed_ms, executor.executed, digest

        for p in plans:
            compiled = CompiledSetup((), (), continuous_skills([p]))
            for seed, cycles in itertools.product((0, 1), triples):
                sim = SimConfig(*cycles, seed=seed)
                hits = cache.cache_info().hits
                warm = one_run(compiled, sim)
                warm_hits += cache.cache_info().hits - hits
                cache.cache_clear()
                assert warm == one_run(compiled, sim)
        assert warm_hits > 0
        differing = set()
        for one, other in itertools.combinations(dict.fromkeys(solve_calls), 2):
            fields = [name for name, a, b in zip(KEY_FIELDS, one, other) if a != b]
            if len(fields) == 1:
                differing.add(fields[0])
        assert differing == set(KEY_FIELDS)

    def test_runs_built_outside_the_benchmark_leave_the_cache_alone(self, solve_calls):
        """Only ``_build_run``'s repetitions meet their windows again, so
        only they solve through the cache: a CM skill on a ``RobotExecutor``
        and a program on a ``NativeExecutor(plans)`` solve every window
        without looking it up, even one the cache holds."""
        plans = build_plans(SETUP_A)
        pose = SETUP_A.start.components()
        run_benchmark(SETUP_A, reps=1, seed=0)
        cache = robot_executor._solve_window
        before = cache.cache_info()
        assert before.currsize == 3
        solve_calls.clear()
        run(ContinuousMotionProgram(plans), RobotExecutor(initial_pose=pose), SimConfig())
        run(NativeTriggerProgram(), NativeExecutor(plans, initial_pose=pose), SimConfig())
        assert len(solve_calls) == 6
        assert cache.cache_info() == before

    def test_a_solved_window_is_cached_as_tuples(self, solve_calls):
        compiled = compile_plans(build_plans(SETUP_A))
        pose = SETUP_A.start.components()
        for etype in (ExecutionType.RC, ExecutionType.CM):
            run(*_build_run(compiled, pose, etype), SimConfig())
        assert len(solve_calls) == 3
        cache = robot_executor._solve_window
        for args in solve_calls:
            assert [type(part) for part in args[:4]] == [tuple] * 4
            hits = cache.cache_info().hits
            window = cache(*args)
            assert cache.cache_info().hits == hits + 1
            assert [type(part) for part in window] == [tuple] * 3


# --- rendering -----------------------------------------------------------------------


class TestRendering:
    def test_table_layout(self, small_report):
        text = render_table([small_report])
        assert "setup a" in text
        for token in ("rc", "sm", "cm", "improvement (sm vs cm):"):
            assert token in text

    def test_raw_csv_round_trips_samples(self, small_report):
        rows = list(csv.reader(io.StringIO(raw_csv([small_report]))))
        assert rows[0] == ["setup", "etype", "rep", "elapsed_ms"]
        assert len(rows) == 1 + 3 * 3
        sm_rows = [r for r in rows[1:] if r[1] == "sm"]
        assert [float(r[3]) for r in sm_rows] == list(
            small_report.stats[ExecutionType.SM].samples
        )
        assert [int(r[2]) for r in sm_rows] == [0, 1, 2]

    def test_summary_csv_improvement_only_on_cm(self, small_report):
        rows = list(csv.reader(io.StringIO(summary_csv([small_report]))))
        assert rows[0] == ["setup", "etype", "aet_ms", "mad_ms", "aet_i"]
        by_type = {r[1]: r for r in rows[1:]}
        assert by_type["rc"][4] == "" and by_type["sm"][4] == ""
        assert float(by_type["cm"][4]) == pytest.approx(small_report.aet_i)
        assert float(by_type["sm"][2]) == small_report.stats[ExecutionType.SM].aet_ms

    def test_the_scenario_doc_shows_the_program_output(self, small_report):
        # small_report is run_benchmark(SETUP_A, reps=3, seed=7), the run
        # the doc's CSV example names
        doc = (Path(__file__).resolve().parents[1] / "docs" / "scenario.md").read_text()

        def first_block(heading):
            return doc.split(f"\n{heading}\n", 1)[1].split("```\n", 2)[1]

        scenario = first_block("## Scenario files (`skillbench run --setup PATH`)")
        assert scenario == serialize_scenario(SETUP_A)
        assert first_block("## Benchmark CSV output") == summary_csv([small_report])


# --- command line --------------------------------------------------------------------


class TestCli:
    def test_run_table(self, capsys):
        assert main(["run", "--reps", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "setup a" in out and "improvement" in out

    def test_run_csv_single_type(self, capsys):
        assert main(["run", "--etype", "cm", "--reps", "1", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["setup", "etype", "aet_ms", "mad_ms", "aet_i"]
        assert [r[1] for r in rows[1:]] == ["cm"]
        assert rows[1][4] == ""  # no sm baseline measured

    def test_run_setup_b(self, capsys):
        assert main(["run", "--setup", "b", "--etype", "rc", "--reps", "1"]) == 0
        assert "setup b" in capsys.readouterr().out

    def test_scenario_file_and_outputs(self, tmp_path, capsys):
        scen = tmp_path / "custom.scenario"
        scen.write_text(serialize_scenario(dataclasses.replace(SETUP_A, name="x")))
        raw = tmp_path / "raw.csv"
        trace = tmp_path / "trace.txt"
        rc = main(
            [
                "run",
                "--setup",
                str(scen),
                "--etype",
                "cm",
                "--reps",
                "25",
                "--seed",
                "0",
                "--raw",
                str(raw),
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        assert "setup x" in capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(raw.read_text())))
        assert len(rows) == 26 and rows[0][0] == "setup"
        # setup A under another name: the file is the pinned last trace
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == LAST_TRACE_DIGEST_A

    def test_missing_scenario_file_is_a_run_failure(self, capsys):
        assert main(["run", "--setup", "/no/such/file"]) == 2
        assert "skillbench:" in capsys.readouterr().err

    def test_unencodable_scenario_is_a_run_failure(self, tmp_path, capsys):
        text = serialize_scenario(SETUP_A)
        for old, new, reason in (
            # finite, but beyond the f32 range of the wire's velocity field
            ("lin_velocity=250.0", "lin_velocity=1e39", "f32"),
            # not finite: a nan obstacle would silently plan no clearance
            ("obstacle_height=60.0", "obstacle_height=nan", "obstacle_height"),
            ("obstacle_height=60.0", "obstacle_height=inf", "obstacle_height"),
            ("clearance_margin=20.0", "clearance_margin=nan", "clearance_margin"),
            ("clearance_margin=20.0", "clearance_margin=inf", "clearance_margin"),
        ):
            scen = tmp_path / "bad.scenario"
            scen.write_text(text.replace(old, new))
            assert main(["run", "--setup", str(scen), "--reps", "1"]) == 2, new
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("skillbench: ") and reason in err[0]

    def test_a_scenario_setting_a_key_twice_is_a_run_failure(self, tmp_path, capsys):
        scen = tmp_path / "twice.scenario"
        scen.write_text(serialize_scenario(SETUP_A) + "lin_velocity=900.0\nname=zz\n")
        assert main(["run", "--setup", str(scen), "--reps", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["skillbench: scenario field 'lin_velocity' set twice"]

    def test_bad_reps_is_usage_error(self, capsys):
        assert main(["run", "--reps", "0"]) == 3

    def test_bad_reps_is_checked_before_the_scenario_file(self, capsys):
        assert main(["run", "--setup", "/no/such/file", "--reps", "0"]) == 3
        assert capsys.readouterr().err == "skillbench: error: --reps must be >= 1\n"

    def test_bad_flag_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--etype", "warp"])
        assert exc.value.code == 3

    def test_no_command_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_console_script_entry(self):
        # the child imports the package under test, installed or not
        src = str(Path(skillbench.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "skillbench.cli", "run", "--etype", "rc", "--reps", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "setup a" in proc.stdout
