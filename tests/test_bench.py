"""Benchmark scenario, statistics, report rendering, and the CLI."""

import csv
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skillbench
from skillbench.bench import (
    SETUP_A,
    SETUP_B,
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
from skillbench.core import ContinuousSkillPlan, ExecutionType, Pose
from skillbench.fieldbus_sim import SimConfig, run
from skillbench.planner import StepKind, plan_waypoints
from skillbench.plc_trigger import (
    ContinuousMotionProgram,
    NativeTriggerProgram,
    SkillProgram,
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
        chains = plan_waypoints(plans, SETUP_A.start)
        assert [p.record_count for p in plans] == [3, 5, 3]
        assert sum(p.record_count for p in plans) == 11
        assert plans[0].terminal_action == "grip"
        assert plans[1].terminal_action == "release"
        assert plans[2].terminal_action is None
        assert chains[0][0] == SETUP_A.start
        assert chains[0][-1] == SETUP_A.pick
        assert chains[1][-1] == SETUP_A.place
        assert chains[2][-1] == SETUP_A.start

    def test_tall_obstacle_adds_clearance_waypoints(self):
        tall = dataclasses.replace(SETUP_A, obstacle_height=120.0)
        steps = build_scenario(tall)
        carry, back = [s for s in steps if s.kind is StepKind.TRANSIT][1:]
        assert carry.clearance == back.clearance == 140.0
        plans = build_plans(tall)
        chains = plan_waypoints(plans, tall.start)
        assert [p.record_count for p in plans] == [3, 6, 4]
        assert Pose(150.0, 0.0, 140.0) in chains[1]
        assert Pose(100.0, 0.0, 140.0) in chains[2]

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

    def test_scenario_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scenario("name=a\nwhatever\n")
        with pytest.raises(ValueError):
            parse_scenario("unknown_field=3\n")
        with pytest.raises(ValueError):
            parse_scenario("pick=1,2,3\n")
        for name in ("obstacle_height", "clearance_margin"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError, match=name):
                    parse_scenario(f"{name}={value}\n")


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
        check = CommandFrame.__post_init__

        def counted(frame):
            built.append(frame)
            check(frame)

        monkeypatch.setattr(CommandFrame, "__post_init__", counted)
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
        build_plans.cache_clear()
        cfg = dataclasses.replace(SETUP_A, name="memo")
        run_benchmark(cfg, reps=1, seed=0)
        run_benchmark(cfg, reps=1, seed=1)
        assert len(calls) == 1
        assert build_plans(cfg) is build_plans(cfg)

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
            build_plans.cache_clear()
            for cfg in (first, *twins):
                report = run_benchmark(cfg, etypes=(ExecutionType.CM,), reps=1)
                digests.add(report.last_trace.digest())
        assert len(digests) == 1

    def test_an_equal_config_gets_equal_frozen_plans(self):
        build_plans.cache_clear()
        plans = build_plans(SETUP_A)
        chains = plan_waypoints(plans, SETUP_A.start)
        build_plans.cache_clear()
        copy = parse_scenario(serialize_scenario(SETUP_A))
        assert copy is not SETUP_A
        assert build_plans(copy) == plans
        assert plan_waypoints(build_plans(copy), copy.start) == chains
        assert build_plans(SETUP_A) is build_plans(copy)
        # the result is shared, so nothing in it can grow
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
    if etype is ExecutionType.RC:
        executor = NativeExecutor.from_records(compiled.records, initial_pose=pose, capture=True)
        return NativeTriggerProgram(), executor
    skills = compiled.single_motion if etype is ExecutionType.SM else compiled.continuous
    return SkillProgram(skills), RobotExecutor(initial_pose=pose, capture=True)


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
