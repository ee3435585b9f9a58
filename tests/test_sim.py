"""Co-simulation scheduler: phase draws, determinism, trace economy, and
the event-driven loop against the polled reference loop."""

import ast
import hashlib
import importlib
import math
import pkgutil
import random
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import pytest

import polled_sim
import skillbench
from polled_sim import run_polled
from skillbench import fieldbus_sim, wire
from skillbench.bench import SETUP_A, SETUP_B, _build_run, build_plans, compile_plans
from skillbench.core import (
    ContinuousSkillPlan,
    ExecutionType,
    JointTarget,
    MotionCommand,
    MotionType,
    Pose,
)
from skillbench.fieldbus_sim import (
    SimConfig,
    SimTimeout,
    SimTrace,
    rep_seed,
    run,
)
from skillbench.plc_trigger import (
    ContinuousMotionProgram,
    NativeTriggerProgram,
    PlcSkillInstance,
    RobotError,
    SkillProgram,
    single_motion_skills,
)
from skillbench.robot_executor import NativeExecutor, RobotExecutor
from skillbench.wire import (
    IDLE_COMMAND_BYTES,
    IDLE_FEEDBACK_BYTES,
    BadCommandWord,
    BadStateCode,
    CommandFrame,
    CommandWord,
    FeedbackFrame,
    NonFiniteScalar,
    RobotState,
    encode_command_frame,
    encode_feedback_frame,
    encode_record,
    explode_plan,
)
from stream_harness import images, random_motions


def one_motion_plan(length=40.0, v=250.0):
    return ContinuousSkillPlan(
        (
            MotionCommand(
                motion_type=MotionType.LIN_CARTESIAN,
                target=Pose(length, 0.0, 0.0),
                velocity=v,
                acceleration=2000.0,
            ),
        )
    )


def phases_of(result):
    first = result.trace.events[0]
    assert (first.source, first.kind) == ("sim", "phases")
    m = re.fullmatch(r"plc=(\d+) bus=(\d+) robot=(\d+)", first.detail)
    return tuple(int(g) for g in m.groups())


class TestSimConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"plc_cycle_us": 0},
            {"bus_cycle_us": -1},
            {"robot_cycle_us": 0},
            {"timeout_us": 0},
        ],
    )
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)

    def test_rep_seed_pairs_runs(self):
        assert rep_seed(7, 0) == rep_seed(7, 0)
        assert rep_seed(7, 0) != rep_seed(7, 1)
        assert rep_seed(7, 0) != rep_seed(8, 0)
        assert 0 <= rep_seed(2**31, 999) <= 0xFFFFFFFF


class TestScheduling:
    def test_phases_stay_inside_their_cycles(self):
        for seed in range(6):
            for rep in range(4):
                cfg = SimConfig(
                    plc_cycle_us=3000, robot_cycle_us=7000, seed=seed, rep=rep
                )
                result = run(
                    ContinuousMotionProgram([one_motion_plan()]),
                    RobotExecutor(),
                    cfg,
                )
                p, b, r = phases_of(result)
                assert 0 <= p < 3000 and 0 <= b < 1000 and 0 <= r < 7000

    def test_events_land_on_task_grids(self):
        cfg = SimConfig(seed=11, rep=3)
        result = run(
            ContinuousMotionProgram([one_motion_plan()]), RobotExecutor(), cfg
        )
        p, b, r = phases_of(result)
        grid = {"plc": (p, 1000), "bus": (b, 1000), "robot": (r, 4000)}
        for e in result.trace.events:
            if e.source in grid:
                phase, cycle = grid[e.source]
                assert (e.t_us - phase) % cycle == 0

    def test_trace_times_are_monotone(self):
        result = run(
            ContinuousMotionProgram([one_motion_plan()]), RobotExecutor(), SimConfig()
        )
        ts = [e.t_us for e in result.trace.events]
        assert ts == sorted(ts)
        assert result.finished_at_us == ts[-1]

    def test_identity_gating_keeps_traces_small(self):
        # one 40 mm motion runs ~285 robot cycles; feedback changes only on
        # state or record transitions, so the trace stays a handful of lines
        result = run(
            ContinuousMotionProgram([one_motion_plan()]), RobotExecutor(), SimConfig()
        )
        robot_events = [e for e in result.trace.events if e.source == "robot"]
        assert 2 <= len(robot_events) <= 4


class TestDeterminism:
    def test_same_seed_same_trace_bytes(self):
        def go():
            return run(
                ContinuousMotionProgram([one_motion_plan()]),
                RobotExecutor(),
                SimConfig(seed=42, rep=5),
            )

        a, b = go(), go()
        assert a.trace.export_text() == b.trace.export_text()
        assert a.trace.digest() == b.trace.digest()
        assert a.finished_at_us == b.finished_at_us

    def test_rep_changes_the_phase_draw(self):
        digests = set()
        for rep in range(4):
            result = run(
                ContinuousMotionProgram([one_motion_plan()]),
                RobotExecutor(),
                SimConfig(seed=42, rep=rep),
            )
            digests.add(result.trace.digest())
        assert len(digests) == 4


def streamed_run(seed=3):
    rng = random.Random(f"lazy-trace-{seed}")
    plan = ContinuousSkillPlan(tuple(random_motions(rng, 60)))
    return run(ContinuousMotionProgram([plan]), RobotExecutor(), SimConfig(seed=seed))


class TestLazyTrace:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Calls of ``hashlib.sha256`` and of the frame summaries that
        ``fieldbus_sim`` makes."""
        calls = {"sha256": 0, "summary": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(
            fieldbus_sim, "hashlib", SimpleNamespace(sha256=counting("sha256", hashlib.sha256))
        )
        for name in ("_cmd_summary", "_fb_summary"):
            monkeypatch.setattr(fieldbus_sim, name, counting("summary", getattr(fieldbus_sim, name)))
        return calls

    def test_run_hashes_and_formats_nothing(self, counted):
        trace = streamed_run().trace
        assert counted == {"sha256": 0, "summary": 0}
        frames = [(kind, frame) for _, _, kind, _, frame in trace.log if frame is not None]
        published = [frame for kind, frame in frames if kind in ("cmd", "fb")]
        delivered = len(frames) - len(published)
        assert len(published) > 50 and delivered > 50
        trace.export_text()
        # one hash per distinct published frame, none per delivery
        assert counted == {
            "sha256": len({id(frame) for frame in published}),
            "summary": len(published),
        }
        before = dict(counted)
        trace.export_text()
        trace.digest()
        assert counted == {"sha256": before["sha256"] + 1, "summary": before["summary"]}

    def test_reads_agree_in_either_order(self):
        a, b = streamed_run().trace, streamed_run().trace
        first = (a.events, a.export_text(), a.digest())
        digest, text, events = b.digest(), b.export_text(), b.events
        assert (events, text, digest) == first
        assert (a.events, a.export_text(), a.digest()) == first
        assert (b.events, b.export_text(), b.digest()) == first
        assert a == b
        details = [line.split(None, 3)[3] for line in text.splitlines()]
        assert [e.detail for e in events] == details


class _FixedImage:
    """A program or an executor that returns one image object at every tick
    and never finishes.  As an executor it asks for every grid point; as a
    program it is ticked at its first grid point and after each feedback
    delivery."""

    finished = False
    t_start_us = t_end_us = None

    def __init__(self, image):
        self.image = image

    def plc_tick(self, t_us, fb):
        return self.image

    def tick(self, t_us, cmd_bytes):
        return self.image

    def next_wakeup(self):
        return 1


class _HeldStart(_FixedImage):
    """A program that holds START for a two-record skill with only record 1
    loaded, so the robot starves once record 1 is complete.  An idle
    ``PlcSkillInstance`` reads each feedback frame, so a robot ERROR ends
    the run through the PLC's one fault policy."""

    def __init__(self):
        slots = (encode_record(explode_plan(one_motion_plan().motions)[0]),)
        super().__init__(
            encode_command_frame(
                CommandFrame(
                    command=CommandWord.START,
                    record_count=1,
                    total_no=2,
                    loaded_through=1,
                    frame_seq=1,
                    slots=slots + (bytes(44),) * 4,
                )
            )
        )
        self.plc = PlcSkillInstance()

    def plc_tick(self, t_us, fb):
        self.plc.cycle(fb)
        return self.image


class TestPublishedFramesAreBytes:
    # a fixed bytes image runs into the timeout; anything else is refused at
    # its first publish, since the trace hashes frames after the run
    CFG = SimConfig(seed=5, timeout_us=20_000)
    OUTCOMES = [
        (bytes, SimTimeout, "no completion within"),
        (bytearray, TypeError, "returned bytearray, not bytes"),
    ]

    @pytest.mark.parametrize("frame_type, error, message", OUTCOMES)
    def test_from_the_program(self, frame_type, error, message):
        program = _FixedImage(frame_type(IDLE_COMMAND_BYTES))
        with pytest.raises(error, match=message):
            run(program, RobotExecutor(), self.CFG)

    @pytest.mark.parametrize("frame_type, error, message", OUTCOMES)
    def test_from_the_executor(self, frame_type, error, message):
        executor = _FixedImage(frame_type(IDLE_FEEDBACK_BYTES))
        with pytest.raises(error, match=message):
            run(NativeTriggerProgram(), executor, self.CFG)


class TestEndToEnd:
    def test_native_trigger_handshake_is_milliseconds(self):
        # empty skill: the measured window is pure trigger turnaround
        for seed in range(10):
            program = NativeTriggerProgram()
            run(program, RobotExecutor(), SimConfig(seed=seed, rep=seed % 3))
            assert 1.0 <= program.elapsed_ms <= 8.0

    def test_timeout_raises(self):
        slow = ContinuousSkillPlan(
            (
                MotionCommand(
                    motion_type=MotionType.LIN_CARTESIAN,
                    target=Pose(100.0, 0.0, 0.0),
                    velocity=10.0,
                    acceleration=2000.0,
                ),
            )
        )
        with pytest.raises(SimTimeout):
            run(
                ContinuousMotionProgram([slow]),
                RobotExecutor(),
                SimConfig(timeout_us=1_000_000),
            )

    def test_record_seq_wraps_in_a_long_streamed_skill(self):
        # joint moves of at most 6e-3 deg at 1e38 deg/s and deg/s^2 last under
        # a microsecond, so the robot completes every loaded record in one
        # cycle and 65,540 records stream in about 13,100 robot cycles
        moves = [
            MotionCommand(MotionType.PTP_JOINT, JointTarget(k * 1e-3), 1e38, 1e38)
            for k in range(7)
        ]
        records = explode_plan([moves[i % 7] for i in range(1, 65_541)])
        assert [r.record_seq for r in records[65_534:65_538]] == [65_535, 0, 1, 2]
        program = SkillProgram([images(records)])
        executor = RobotExecutor(capture=True)
        run(program, executor, SimConfig(seed=1))
        assert executor.executed == [(i, 1, r.target, 0) for i, r in enumerate(records, 1)]
        assert program.plc.skills_completed == 1 and program.plc.last_error is None

    def test_robot_fault_propagates_out_of_run(self):
        class FaultyExecutor:
            def tick(self, t_us, cmd_bytes):
                return encode_feedback_frame(
                    FeedbackFrame(state=RobotState.ERROR, error_code=2)
                )

            def next_wakeup(self):
                return 1

        with pytest.raises(RobotError):
            run(
                ContinuousMotionProgram([one_motion_plan()]),
                FaultyExecutor(),
                SimConfig(),
            )

    @pytest.mark.parametrize("robot_us", [4000, 7000, 12000])
    def test_starvation_faults_250_robot_cycles_after_the_last_record(
        self, robot_us, traces
    ):
        # the starvation limit counts robot cycles, whatever their length
        program = _HeldStart()
        with pytest.raises(RobotError, match="^robot error code 2$") as exc:
            run(program, RobotExecutor(), SimConfig(robot_cycle_us=robot_us))
        assert exc.value.code == program.plc.last_error == 2
        log = traces[-1].log
        published = [(t, f) for t, src, kind, f, _ in log if (src, kind) == ("robot", "fb")]
        t_done = next(t for t, f in published if f.cur_exec == 2)
        t_error, error = published[-1]
        assert (error.state, error.error_code) == (RobotState.ERROR, 2)
        assert t_error - t_done == 250 * robot_us
        assert log[-1][1:4] == ("plc", "error", "RobotError: robot error code 2")


# --- event-driven loop against the polled reference --------------------------

CYCLE_SETS = (
    (1000, 1000, 4000),
    (1000, 500_000, 4000),  # a 500 ms bus starves the five-slot window
    (3000, 700, 7000),  # grids that never line up
)
# a 1 us grid puts a point of that task on every point of the others, so
# these sets exercise the tie order; only short streamed skills use them
TIE_CYCLE_SETS = ((1, 1000, 4000), (1000, 1, 4000), (1000, 1000, 1))
KINDS = tuple((setup, etype) for setup in "ab" for etype in ("rc", "sm", "cm")) + (
    ("stream", "cm"),
)
SETUPS = {"a": SETUP_A, "b": SETUP_B}
N_CASES = 4 * len(KINDS) * len(CYCLE_SETS)
N_TIE_CASES = 6 * len(TIE_CYCLE_SETS)


def kind_plans(setup, rng, records):
    """Plans and start pose of a ``KINDS`` setup; a stream is one skill of
    ``records`` records drawn from ``rng``."""
    if setup == "stream":
        return [ContinuousSkillPlan(tuple(random_motions(rng, records)))], (0.0,) * 6
    plans = build_plans(SETUPS[setup])
    return plans, SETUPS[setup].start.components()


def build_case(case: int):
    """Program/executor factory and config of one differential case.

    Below ``N_CASES``: setups A/B x RC/SM/CM and a short-leg streamed skill
    under each cycle set, four seeded draws each; the second draw starves
    into a fault after 3 robot cycles and the third times out after 300 ms.
    Above: a streamed skill of at most 8 records under a tie set.
    """
    rng = random.Random(f"sim-diff-{case}")
    draw, combo = divmod(case, len(KINDS) * len(CYCLE_SETS))
    if case < N_CASES:
        setup, etype = KINDS[combo % len(KINDS)]
        plc_us, bus_us, robot_us = CYCLE_SETS[combo // len(KINDS)]
        records = rng.randint(1, 40)
    else:
        setup, etype = "stream", "cm"
        plc_us, bus_us, robot_us = TIE_CYCLE_SETS[case % len(TIE_CYCLE_SETS)]
        records = rng.randint(1, 8)
    limit = 3 if draw == 1 else 250
    timeout = 300_000 if draw == 2 else 120_000_000
    cfg = SimConfig(plc_us, bus_us, robot_us, rng.randrange(2**31), rng.randrange(25), timeout)
    plans, pose = kind_plans(setup, rng, records)

    def make():
        if etype == "rc":
            program = NativeTriggerProgram()
            executor = NativeExecutor(plans, initial_pose=pose, capture=True)
        else:
            if etype == "sm":
                program = SkillProgram(single_motion_skills(plans))
            else:
                program = ContinuousMotionProgram(plans)
            executor = RobotExecutor(initial_pose=pose, starvation_limit=limit, capture=True)
        return program, executor

    return make, cfg


@pytest.fixture
def traces(monkeypatch):
    """Every SimTrace either loop creates, also those of runs that raise."""
    made = []

    class Recorded(SimTrace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(fieldbus_sim, "SimTrace", Recorded)
    monkeypatch.setattr(polled_sim, "SimTrace", Recorded)
    return made


def outcome(loop, make, cfg, traces):
    """Everything a run leaves behind that the two loops must agree on."""
    program, executor = make()
    try:
        ended = loop(program, executor, cfg).finished_at_us
    except Exception as e:
        ended = (type(e), str(e))
    return (
        traces[-1].export_text(),
        ended,
        program.t_start_us,
        program.t_end_us,
        executor.executed,
        executor.fallback_stops,
        executor.pose,
        executor.state,
    )


class TestEventDriven:
    @pytest.mark.parametrize("case", range(N_CASES + N_TIE_CASES))
    def test_matches_the_polled_loop(self, case, traces):
        make, cfg = build_case(case)
        assert outcome(run, make, cfg, traces) == outcome(run_polled, make, cfg, traces)

    def test_the_plc_runs_before_the_bus_at_a_tie(self):
        # on 1 us grids the robot publishes a new feedback image at every
        # point, the bus delivers it at the next and the PLC wakes one point
        # later, when the bus is due with the next image: the PLC runs first
        # and reads the image delivered before the tie
        seen = []

        class Program(_FixedImage):
            def plc_tick(self, t_us, fb):
                seen.append((t_us, fb.cur_exec))
                return self.image

        class Executor(_FixedImage):
            def tick(self, t_us, cmd_bytes):
                return wire.pack_feedback_frame(RobotState.RUNNING, 0, t_us + 1, 0, (0.0,) * 6)

        with pytest.raises(SimTimeout):
            run(Program(IDLE_COMMAND_BYTES), Executor(None), SimConfig(1, 1, 1, timeout_us=5))
        assert seen == [(0, 0), (2, 1), (3, 2), (4, 3), (5, 4)]

    def test_cases_reach_timeouts_and_starvation_faults(self, traces):
        ends = [outcome(run, *build_case(case), traces)[:2] for case in range(N_CASES)]
        assert any(text.splitlines()[-1].split()[1:3] == ["sim", "timeout"] for text, _ in ends)
        assert (RobotError, "robot error code 2") in [end for _, end in ends]
        assert sum(isinstance(end, int) for _, end in ends) > N_CASES // 2

    def test_one_setup_a_cm_repetition_ticks_the_plc_rarely(self):
        # the polled loop makes about 5,100 plc_tick calls here
        plans = build_plans(SETUP_A)
        program = ContinuousMotionProgram(plans)
        executor = RobotExecutor(initial_pose=SETUP_A.start.components())
        calls, _, delivered, _ = count_plc_ticks(program, executor, SimConfig(seed=0))
        assert program.elapsed_ms == pytest.approx(5107.0, abs=10.0)
        assert (calls, len(delivered)) == (18, 17)

    @pytest.mark.parametrize("plc_cycle_us", [1000, 50_000])
    @pytest.mark.parametrize("kind", KINDS, ids="-".join)
    def test_the_plc_ticks_once_per_feedback_delivery(self, kind, plc_cycle_us, monkeypatch):
        # one tick at the PLC's first grid point and one at the first PLC
        # grid point after each delivered feedback image; a 50 ms PLC sees
        # some images only after the next, and the robot's first image may
        # arrive before its first grid point
        setup, etype = kind
        plans, pose = kind_plans(setup, random.Random(3), 100)
        program, executor = _build_run(compile_plans(plans), pose, ExecutionType(etype))
        decoded = count_wire_calls(monkeypatch, "decode_feedback_frame")
        calls, phase_plc, delivered, published = count_plc_ticks(
            program, executor, SimConfig(plc_cycle_us=plc_cycle_us)
        )
        # the loop decodes each published feedback image once and the PLC
        # reads that frame
        assert len(decoded) == len(published) > 0
        if plc_cycle_us == 1000:
            assert calls == 1 + len(delivered)
        else:
            # the first PLC grid point phase_plc + k * plc_cycle_us (k >= 0)
            # strictly after each delivery
            wakes = {
                phase_plc + max(0, -((phase_plc - t - 1) // plc_cycle_us)) * plc_cycle_us
                for t in delivered
            }
            assert calls == len(wakes | {phase_plc})

    def test_the_polled_loop_checks_the_fixed_point_contract(self, traces):
        # run ticks the PLC only after a feedback delivery, which is right
        # only if one tick reaches the fixed point of its feedback; a PLC
        # that loads one record per refill breaks that, and the polled loop,
        # which takes a full tick at every grid point, must tell
        plans = [ContinuousSkillPlan(tuple(random_motions(random.Random(4), 40)))]

        def make():
            program = ContinuousMotionProgram(plans)
            program.plc = _OneRecordPerRefill()
            return program, RobotExecutor(capture=True)

        cfg = SimConfig(seed=4)
        assert outcome(run, make, cfg, traces) != outcome(run_polled, make, cfg, traces)


class _OneRecordPerRefill(PlcSkillInstance):
    """Loads at most one record per refill, so a second cycle on the same
    feedback can load more."""

    def _refill(self, cur):
        total, self._total = self._total, min(self._total, self._loaded + 1)
        super()._refill(cur)
        self._total = total


def count_plc_ticks(program, executor, config):
    """``plc_tick`` calls of one ``run``, its PLC phase and the times of its
    feedback deliveries and of its robot's feedback publishes."""
    calls = []
    tick = program.plc_tick

    def counted(t_us, fb):
        calls.append(t_us)
        return tick(t_us, fb)

    program.plc_tick = counted
    result = run(program, executor, config)
    delivered = [t_us for t_us, _, kind, _, _ in result.trace.log if kind == "fb_deliver"]
    published = [t_us for t_us, _, kind, _, _ in result.trace.log if kind == "fb"]
    return len(calls), phases_of(result)[0], delivered, published


def count_wire_calls(monkeypatch, function):
    """A list that gets one entry per call of ``wire.<function>`` made
    through any ``skillbench`` module attribute that holds it, the names the
    benchmark's tracer wraps."""
    calls = []
    real = getattr(wire, function)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for info in pkgutil.iter_modules(skillbench.__path__):
        module = importlib.import_module(f"skillbench.{info.name}")
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
    return calls


ROOT = Path(__file__).resolve().parent.parent
SIMULATION_LOOPS = {
    ("src/skillbench/fieldbus_sim.py", "run"),
    ("tests/polled_sim.py", "run_polled"),
}


def bound_tick_methods(func):
    """Local names that ``func`` assigns a ``plc_tick`` or ``tick``
    attribute to, one by one or unpacked from a tuple, mapped to that
    attribute's name."""
    bound = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if (
                    isinstance(name, ast.Name)
                    and isinstance(value, ast.Attribute)
                    and value.attr in ("plc_tick", "tick")
                ):
                    bound[name.id] = value.attr
    return bound


def loop_functions(source):
    """Names of the functions in ``source`` with a loop that calls both a
    ``plc_tick`` and a ``tick`` method, directly or through a local name
    bound to it: each ticks a program against an executor."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = bound_tick_methods(func)
        for loop in ast.walk(func):
            if isinstance(loop, (ast.For, ast.While)):
                called = set()
                for node in ast.walk(loop):
                    if isinstance(node, ast.Call):
                        if isinstance(node.func, ast.Attribute):
                            called.add(node.func.attr)
                        elif isinstance(node.func, ast.Name) and node.func.id in bound:
                            called.add(bound[node.func.id])
                if {"plc_tick", "tick"} <= called:
                    found.add(func.name)
    return found


def simulation_loops(path):
    """``(path, function)`` of each ``loop_functions`` in ``path``."""
    rel = path.relative_to(ROOT).as_posix()
    return {(rel, name) for name in loop_functions(path.read_text())}


def test_loop_detector_follows_bound_tick_methods():
    source = """
def bound_one_by_one(program, executor):
    tick = executor.tick
    while True:
        tick(0, program.plc_tick(0, None))

def bound_as_a_tuple(program, executor):
    plc_tick, tick = program.plc_tick, executor.tick
    for t in range(3):
        tick(t, plc_tick(t, None))

def bound_but_not_looped(program, executor):
    tick = executor.tick
    tick(0, program.plc_tick(0, None))
"""
    assert loop_functions(source) == {"bound_one_by_one", "bound_as_a_tuple"}


def test_run_and_run_polled_are_the_only_simulation_loops():
    patterns = ("src/skillbench/*.py", "tests/*.py", "demos/*.py")
    paths = [path for pattern in patterns for path in ROOT.glob(pattern)]
    assert set().union(*map(simulation_loops, paths)) == SIMULATION_LOOPS


CYCLE_OWNERS = {
    ("src/skillbench/fieldbus_sim.py", "SimConfig"),
    ("src/skillbench/fieldbus_sim.py", "run"),
}


def cycle_readers(path):
    """Top-level functions and classes in ``path`` that take or read a name
    ending in ``cycle_us``: a parameter, a variable or an attribute."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            name = (
                node.arg if isinstance(node, ast.arg)
                else node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None
            )
            if name is not None and name.endswith("cycle_us"):
                found.add((path.relative_to(ROOT).as_posix(), getattr(top, "name", "<module>")))
    return found


def test_the_cycle_lengths_have_one_owner():
    # the loop's clock is the robot's only clock: SimConfig holds the
    # cycle lengths and run alone lays the task grids out from them
    paths = sorted(ROOT.glob("src/skillbench/*.py"))
    assert set().union(*map(cycle_readers, paths)) == CYCLE_OWNERS


def test_the_plc_builds_no_command_frame():
    # the PLC packs its images from fields it keeps in range, with
    # wire.pack_command_frame; the validating CommandFrame is for callers
    # that do not
    tree = ast.parse((ROOT / "src/skillbench/plc_trigger.py").read_text())
    names = {
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert "pack_command_frame" in names
    assert not names & {"CommandFrame", "encode_command_frame"}


def test_an_empty_program_publishes_its_idle_image():
    # the PLC's initial image is its own object, not IDLE_COMMAND_BYTES, so
    # the loop sees a new image at the first tick and traces it
    text = run(SkillProgram([]), RobotExecutor()).trace.export_text()
    assert text == (
        "           0 sim   phases       plc=864 bus=394 robot=3104\n"
        "         864 plc   cmd          word=IDLE count=0 total=0 loaded=0 seq=0 5341e6b26469\n"
        "         864 sim   finished     t=864\n"
    )


class _Corrupting:
    """Forwards a program or an executor, hooks included, but publishes the
    ``nth`` distinct image that ``call`` returns as ``corrupt(image)``.  The
    corrupted image keeps its identity on repeats, so both loops see the same
    published sequence."""

    def __init__(self, inner, call, nth, corrupt):
        self._inner = inner
        fn = getattr(inner, call)
        last, out, seen = None, None, 0

        def wrapped(t_us, image):
            nonlocal last, out, seen
            got = fn(t_us, image)
            if got is not last:
                last, seen = got, seen + 1
                out = corrupt(got) if seen == nth else got
            return out

        setattr(self, call, wrapped)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _poke(offset, fmt, value):
    def corrupt(image):
        data = bytearray(image)
        struct.pack_into(fmt, data, offset, value)
        return bytes(data)

    return corrupt


MALFORMED = {
    # a program that publishes a bad command word
    "command-word": ("plc_tick", _poke(0, "<B", 9), BadCommandWord),
    # an executor that publishes a bad state code
    "state-code": ("tick", _poke(0, "<B", 9), BadStateCode),
    # an executor that publishes a non-finite pose
    "pose": ("tick", _poke(8 + 4 * 2, "<f", math.nan), NonFiniteScalar),
}


# the trigger program of an RC run publishes two images, START and IDLE
MALFORMED_CASES = [
    (etype, kind, nth)
    for etype in ("rc", "cm")
    for kind in sorted(MALFORMED)
    for nth in (1, 2, 5)
    if not (etype == "rc" and kind == "command-word" and nth > 2)
]


class TestMalformedPublishedFrames:
    @pytest.mark.parametrize("etype, kind, nth", MALFORMED_CASES)
    def test_raises_as_the_polled_loop_does(self, etype, kind, nth, traces):
        call, corrupt, error = MALFORMED[kind]
        rng = random.Random(f"malformed-{etype}-{kind}-{nth}")
        plans = [ContinuousSkillPlan(tuple(random_motions(rng, 12)))]
        cfg = SimConfig(seed=rng.randrange(2**31), rep=rng.randrange(25))

        def make():
            if etype == "rc":
                program, executor = NativeTriggerProgram(), NativeExecutor(plans, capture=True)
            else:
                program = ContinuousMotionProgram(plans)
                executor = RobotExecutor(capture=True)
            if call == "plc_tick":
                return _Corrupting(program, call, nth, corrupt), executor
            return program, _Corrupting(executor, call, nth, corrupt)

        got = outcome(run, make, cfg, traces)
        assert got == outcome(run_polled, make, cfg, traces)
        assert got[1][0] is error
