"""The corner-speed solver against its unedited quadratic predecessor.

``reference_solver.solve_corners`` is the solver before each degrade round
did linear work, and before a later round re-solved only what the round
before it dropped.  On windows captured from native, streamed and
benchmark runs, and on seeded chains built to reach every degrade path,
the solver must return bit-identical speeds and the very same blend
objects, or raise the same exception, and every straight time it hands
back must be the closed form at the final speeds.  The executors
take those times: every executed duration must equal ``motion_time`` of
its plan, or of an exact stop where no plan covers the motion, and the
durations of stored and streamed runs are pinned, with the two streamed
runs whose blend past an exact stop an earlier window dropped.  Four more
tests pin what the rewrites bought: windows that end at their first exact
stop, the number of segment timings of one native program, linear scaling
of the run fallback, and a later round whose square roots do not grow
with the window.
"""

import hashlib
import linecache
import math
import random
import sys
import time
from collections import Counter

import pytest

from skillbench import robot_executor, trajectory
from skillbench.bench import SETUP_A, SETUP_B, run_benchmark
from skillbench.core import ContinuousSkillPlan, ExecutionType, MotionCommand, MotionType, Pose
from skillbench.fieldbus_sim import SimConfig, run
from skillbench.plc_trigger import ContinuousMotionProgram
from skillbench.robot_executor import RobotExecutor
from skillbench.trajectory import InfeasibleBoundary, blend_geometry, solve_corners

import reference_solver
from stream_harness import native_baseline, random_motions
from test_trajectory import two_losing_runs


def assert_matches_reference(args):
    """``solve_corners(*args)`` returns what the reference returns, to the
    bit and to the object, or raises the same exception; returns the
    reference's exception, if any.  Each straight time it hands back is
    the closed form at the final speeds and truncations, to the bit."""
    try:
        want_speeds, want_blends = reference_solver.solve_corners(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            solve_corners(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return exc
    speeds, blends, straight = solve_corners(*args)
    assert repr(speeds) == repr(want_speeds)  # repr round-trips every float
    assert len(blends) == len(want_blends)
    assert all(got is want for got, want in zip(blends, want_blends))
    assert_straight_times(args, speeds, blends, straight)
    return None


def assert_straight_times(args, speeds, blends, straight):
    """Every timed ``straight[i]`` is ``segment_time`` of segment i between
    the final truncations at the final speeds, recomputed here."""
    lengths, vmaxes, accels, _blends, *entry = args
    entry_trunc = entry[1] if len(entry) > 1 else 0.0
    trunc = [0.0 if b is None else b.truncation for b in blends]
    trunc[0] = entry_trunc
    assert len(straight) == len(lengths)
    for i, got in enumerate(straight):
        if got is not None:
            eff = lengths[i] - trunc[i] - trunc[i + 1]
            want = trajectory.segment_time(eff, vmaxes[i], accels[i], speeds[i], speeds[i + 1])
            assert repr(got) == repr(want), (i, got, want)


def reference_lines(args) -> Counter:
    """How often each source line of the reference solver ran on ``args``."""
    code = reference_solver.solve_corners.__code__
    hits = Counter()

    def local(frame, event, _arg):
        if event == "line":
            hits[linecache.getline(code.co_filename, frame.f_lineno).strip()] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, _event, _arg: local if frame.f_code is code else None)
    try:
        reference_solver.solve_corners(*args)
    finally:
        sys.settrace(previous)
    return hits


def lin_program(rng: random.Random, motions: int) -> ContinuousSkillPlan:
    """A blended all-LIN chain as the ``native_long`` benchmark draws it:
    0.6-3 mm legs, approx 0.05-0.25 mm, fast dynamics, last corner exact."""
    out, pos = [], (0.0, 0.0, 0.0)
    for i in range(motions):
        while True:
            d = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            norm = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
            if 1e-3 < norm <= 1.0:
                break
        step = rng.uniform(0.6, 3.0) / norm
        pos = tuple(p + c * step for p, c in zip(pos, d))
        approx = 0.0 if i == motions - 1 else rng.uniform(0.05, 0.25)
        out.append(MotionCommand(MotionType.LIN_CARTESIAN, Pose(*pos), 4000.0, 4.0e6, approx))
    return ContinuousSkillPlan(tuple(out))


# --- captured windows ------------------------------------------------------------


def test_native_windows_match_the_reference(solve_calls):
    """Stored 200-motion programs, each planned as one Cartesian window."""
    for seed in range(30):
        native_baseline([lin_program(random.Random(seed), 200)])
    assert len(solve_calls) == 30
    for args in solve_calls:
        assert_matches_reference(args)


def test_streamed_windows_match_the_reference(solve_calls):
    """Windows of skills streamed through the five-slot window, entered at
    the speeds and truncations the previous plan committed.  A window ends
    at its first exact stop, so few are entered moving: twelve skills give
    25 such windows."""
    for seed in range(12):
        plan = ContinuousSkillPlan(tuple(random_motions(random.Random(seed), 120)))
        run(ContinuousMotionProgram([plan]), RobotExecutor())
    assert sum(args[4] > 0.0 for args in solve_calls) > 20
    for args in solve_calls:
        assert_matches_reference(args)


@pytest.mark.parametrize("cfg", [SETUP_A, SETUP_B], ids=["A", "B"])
def test_benchmark_rc_windows_match_the_reference(solve_calls, cfg):
    """The paper's stored RC programs, one window per group: the exact
    stop that ends a group ends its window."""
    run_benchmark(cfg, etypes=(ExecutionType.RC,), reps=1)
    assert solve_calls
    for args in solve_calls:
        assert_matches_reference(args)


# --- seeded chains ---------------------------------------------------------------


def random_chain(rng: random.Random):
    """Arguments of ``solve_corners`` for a chain of 2-12 segments with mixed
    dynamics: exact stops, pass-throughs, zero-approx corners and arcs of
    any turn, entered at rest or at a committed speed and truncation."""
    n = rng.randint(2, 12)
    lengths = [rng.uniform(0.2, 5.0) for _ in range(n)]
    vmaxes = [rng.choice((50.0, 500.0, 4000.0)) for _ in range(n)]
    accels = [rng.choice((500.0, 5.0e4, 4.0e6)) for _ in range(n)]
    blends = [None] * (n + 1)
    for i in range(1, n):
        roll = rng.random()
        if roll < 0.15:
            continue
        angle = 0.0 if roll < 0.25 else rng.uniform(0.02, 3.1)
        approx = 0.0 if roll < 0.3 else rng.uniform(0.0, 0.5) * min(lengths[i - 1], lengths[i])
        accel = min(accels[i - 1], accels[i])
        blends[i] = blend_geometry(angle, approx, vmaxes[i - 1], vmaxes[i], accel)
    if rng.random() < 0.5:
        return lengths, vmaxes, accels, blends
    entry_speed = rng.uniform(0.0, vmaxes[0])
    entry_trunc = rng.uniform(0.0, 0.5) * lengths[0]
    return lengths, vmaxes, accels, blends, entry_speed, entry_trunc


def with_losing_run(rng: random.Random, args):
    """``args`` continued past an exact stop by one of the two runs that
    only the run fallback drops; random chains almost never lose as a run."""
    lengths, vmaxes, accels, blends, *entry = args
    run_l, run_v, run_a, run_b = rng.choice(two_losing_runs())
    return (lengths + run_l, vmaxes + run_v, accels + run_a, blends[:-1] + run_b, *entry)


# a line of the reference solver that runs only on one degrade path
PATH_LINES = {
    "entry_stuck": "drop = [i for i in range(n - 1, 0, -1) if blends[i] is not None][:1]",
    "infeasible_stop": "except InfeasibleBoundary:",
    "fallback_drop": "drop += run_arcs",
}


def test_random_chains_match_the_reference_on_every_path():
    """2,000 seeded chains, one in ten continued by a losing run; together
    they reach every degrade path of the reference: a stuck entry speed, a
    stop that cannot be reached, three or more rounds and a run fallback
    that drops."""
    rng = random.Random(0xC0DE)
    paths = Counter()
    for _ in range(2000):
        args = random_chain(rng)
        if rng.random() < 0.1:
            args = with_losing_run(rng, args)
        assert_matches_reference(args)
        lines = reference_lines(args)
        paths.update(path for path, line in PATH_LINES.items() if line in lines)
        paths["three_rounds"] += lines["trunc[0] = entry_trunc"] >= 3
    assert all(paths[path] >= 10 for path in (*PATH_LINES, "three_rounds")), paths


def test_losing_runs_match_the_reference():
    """The seeded two-run window whose blends only the run fallback drops,
    and each run entered at a committed speed, which exempts it from the
    fallback: its blends stay."""
    (l1, v1, a1, b1), (l2, v2, a2, b2) = two_losing_runs()
    assert_matches_reference((l1, v1, a1, b1))
    assert_matches_reference((l1 + l2, v1 + v2, a1 + a2, b1[:-1] + b2))
    for lengths, vmaxes, accels, blends in two_losing_runs():
        for entry_speed in (1e-6, 0.1):
            args = (lengths, vmaxes, accels, blends, entry_speed, 0.0)
            assert_matches_reference(args)
            assert solve_corners(*args)[1][1:-1] == blends[1:-1]


def eaten_chain(rng: random.Random):
    """``random_chain`` with one arc whose truncation eats a whole segment
    beside an exact stop, so that the passes pin its corner to zero speed
    and round 1 drops it: the next round must follow the drop on both
    sides for as long as it changes a speed."""
    lengths, vmaxes, accels, blends, *entry = random_chain(rng)
    n = len(lengths)
    d = rng.randint(1, n - 1)
    eaten = rng.choice((d - 1, d))
    far = eaten if eaten < d else d + 1  # the corner beyond the eaten segment
    if 0 < far < n:
        blends[far] = None
    angle, accel = rng.uniform(0.1, 2.5), min(accels[d - 1], accels[d])
    blends[d] = blend_geometry(angle, lengths[eaten], vmaxes[d - 1], vmaxes[d], accel)
    return lengths, vmaxes, accels, blends, *entry


def test_chains_with_an_eaten_segment_match_the_reference():
    """3,000 seeded chains whose later rounds re-solve around a corner that
    was already at zero speed: the forward pass must run one corner past
    it, the backward pass one corner below it, and the round after a stuck
    entry must test every arc."""
    rng = random.Random(0xEA7)
    for _ in range(3000):
        assert_matches_reference(eaten_chain(rng))


def test_an_arc_is_tested_again_when_only_its_next_speed_changed():
    """Two chains (found by a search of 150,000 ``random_chain`` seeds) in
    which a later degrade round changes only the speed at the corner after
    an arc that passed an earlier round, and the arc's verdict with it: an
    arc that remembered its inputs without that speed would keep it."""
    for seed in (80836, 93174):
        assert_matches_reference(random_chain(random.Random(seed)))


def test_a_segment_is_timed_again_when_only_its_length_changed():
    """The last arc's truncation eats its whole segment, so the backward
    pass pins its corner speed to exactly zero and the first round drops
    it.  The second round gives the segment before it back that
    truncation at unchanged end speeds: a timing carried over on its
    speeds alone would hand the executor the shorter segment's seconds."""
    arc = blend_geometry(1.0, 1.0, 1000.0, 1000.0, 1000.0)
    args = ([10.0, 10.0, 1.0], [1000.0] * 3, [1000.0] * 3, [None, arc, arc, None])
    assert assert_matches_reference(args) is None
    speeds, blends, straight = solve_corners(*args)
    assert blends[1] is arc and blends[2] is None and speeds[2] == 0.0
    assert straight[1] is not None


def test_overrun_chains_fail_as_the_reference_does():
    """Chains whose truncations may overrun a segment, which no caller
    builds: the first timing that cannot connect its speeds raises the same
    ``InfeasibleBoundary``, and a negative reach the same math error."""
    rng = random.Random(0xBAD)
    raised = Counter()
    for _ in range(1000):
        lengths, vmaxes, accels, blends, *entry = random_chain(rng)
        lengths = [length * rng.uniform(0.3, 1.0) for length in lengths]
        raised[type(assert_matches_reference((lengths, vmaxes, accels, blends, *entry)))] += 1
    assert raised[InfeasibleBoundary] >= 10 and raised[ValueError] >= 10, raised
    # an arc overrunning both its segments between two pass-throughs: the
    # segment into the arc is timed first, so its message is the one raised
    arc = blend_geometry(1.0, 1.5, 1000.0, 1000.0, 1000.0)
    passing = blend_geometry(0.0, 0.0, 1000.0, 1000.0, 1000.0)
    blends = [None, passing, arc, passing, None]
    exc = assert_matches_reference(([100.0, 1.49, 1.49, 100.0], [1000.0] * 4, [1000.0] * 4, blends))
    assert isinstance(exc, InfeasibleBoundary) and " to 52.0166" in str(exc), exc


# --- the timing handed to the executor -------------------------------------------


def test_every_duration_is_motion_time_of_its_plan(monkeypatch):
    """Native 200-motion programs, each followed by one more motion,
    streamed skills whose windows open at a committed speed, and both
    setups under RC, SM and CM: each executed Cartesian motion lasts what
    ``motion_time`` gives at its plan's speeds and blends, rounded up to
    whole µs, both where the executor took the solver's straight seconds and
    where it timed the motion itself.  A motion that no plan covers ends at
    an exact stop, and lasts what ``motion_time`` gives at exit speed zero
    without a blend."""
    seen = Counter()  # (label, kind) of each checked activation
    label = None
    activate = robot_executor._CyclicExecutor._activate

    def checked(executor, t_us):
        k = executor._next
        v_in, trunc_in = executor._entry
        activate(executor, t_us)
        rec = executor._motions[k][0]
        if rec.joint_target:
            return
        plan = executor._plan
        if plan is not None and plan[0] <= k < plan[1]:
            first, _end, speeds, blends, straight = plan
            j = k - first
            assert speeds[j] == v_in
            v_out, b = speeds[j + 1], blends[j + 1]
            kind = "timed" if straight[j] is None else "reused"
        else:
            assert executor._corners[k] is None
            v_out, b, kind = 0.0, None, "stop"
        seconds = sum(
            trajectory.motion_time(
                executor._lengths[k], rec.velocity, rec.acceleration,
                v_in, v_out, trunc_in, b,
            )
        )
        assert executor._active[1] == max(0, math.ceil(seconds * 1e6 - 1e-12))
        assert executor._active[5] == (v_out, 0.0 if b is None else b.truncation)
        seen[label, kind] += 1
        seen[label, "entered_moving"] += kind != "stop" and j == 0 and v_in > 0.0

    monkeypatch.setattr(robot_executor._CyclicExecutor, "_activate", checked)
    label = "native"
    for seed in range(3):
        # the one-motion group stops where it starts a window
        native_baseline([lin_program(random.Random(seed), n) for n in (200, 1)])
    label = "streamed"
    for seed in range(15):  # seed 14 is the first whose plan leaves a straight untimed
        plan = ContinuousSkillPlan(tuple(random_motions(random.Random(seed), 120)))
        run(ContinuousMotionProgram([plan]), RobotExecutor())
    label = "benchmark"
    for cfg in (SETUP_A, SETUP_B):
        run_benchmark(cfg, reps=2, seed=0)
    assert seen["native", "reused"] == 600
    assert seen["streamed", "entered_moving"] > 0
    assert seen["streamed", "timed"] > 0 and seen["benchmark", "reused"] > 0, seen
    for label in ("native", "streamed", "benchmark"):
        assert seen[label, "reused"] > 0 and seen[label, "stop"] > 0, seen


# SHA-256 prefixes of the executed ``dur_us`` lists: the ``perfbench``
# fingerprints of ``native_long`` and ``stream`` do not see the timing model
DURATIONS_SHA = {
    ("native", 0): "0bdab6b442c1b395",
    ("native", 1): "a0dbeba81252f002",
    ("native", 2): "03c8964c12258bc0",
    ("streamed", 0): "42d64ee66a3c615e",
    ("streamed", 1): "82312ab177a385d6",
    ("streamed", 2): "518b346a6d01117a",
}


@pytest.mark.parametrize("kind, seed", sorted(DURATIONS_SHA))
def test_the_executed_durations_are_pinned(kind, seed):
    """Stored 200-motion LIN programs and streamed 120-record skills
    execute the pinned durations: a change to how the solver or the executor
    works that keeps the timing model keeps them."""
    if kind == "native":
        executor = native_baseline([lin_program(random.Random(seed), 200)])
    else:
        plan = ContinuousSkillPlan(tuple(random_motions(random.Random(seed), 120)))
        executor = RobotExecutor(capture=True)
        run(ContinuousMotionProgram([plan]), executor)
    durations = [dur_us for *_, dur_us in executor.executed]
    assert hashlib.sha256(repr(durations).encode()).hexdigest()[:16] == DURATIONS_SHA[kind, seed]


# streamed runs in which the executor decides a blend past an exact stop at
# the first activation after the stop, not at the one before it: (seed of
# the skill and of the run, PLC/bus/robot cycles in ms, motion k, durations
# of motions k and k + 1 in µs)
DECIDED_AFTER_THE_STOP = [
    (65, (10, 8, 12), 98, (1811, 1088)),  # dropped while an entry was stuck: 1709, 1276
    (1200, (5, 5, 5), 61, (1510, 1404)),  # dropped by its own test: 1441, 1473
]


@pytest.mark.parametrize("seed, cycles_ms, k, durations", DECIDED_AFTER_THE_STOP)
def test_a_blend_past_an_exact_stop_survives_an_earlier_window(seed, cycles_ms, k, durations):
    """Motion k - 1 ends at an exact stop and k blends into k + 1.  An
    activation before the stop once solved that blend too, from the
    records then visible, and dropped it for good: in the first run while
    it shed a committed entry speed it could not shed (the newest blend
    goes first, and this one cannot change a speed before the stop), in the
    second by the blend's own test against the fallback stop after motion
    k + 1, whose successor had not arrived.  A window now ends at its first
    exact stop, so the blend is decided by the activation of motion k from
    the records visible then, and it stays."""
    plan = ContinuousSkillPlan(tuple(random_motions(random.Random(seed * 7 + 120), 120)))
    executor = RobotExecutor(capture=True)
    plc_ms, bus_ms, robot_ms = cycles_ms
    cfg = SimConfig(plc_ms * 1000, bus_ms * 1000, robot_ms * 1000, seed=seed)
    run(ContinuousMotionProgram([plan]), executor, cfg)
    assert executor._corners[k - 1] is None and executor._corners[k] is not None
    assert tuple(dur_us for *_, dur_us in executor.executed[k : k + 2]) == durations


# --- cost ------------------------------------------------------------------------


def test_windows_end_at_their_first_exact_stop(solve_calls):
    """No window an executor solves holds an interior exact stop or opens
    on a motion that ends at one: the corners after a stop cannot change
    a speed or a blend before it, and a motion that stops needs no solve.
    Streamed skills 0-3 make 80 solves (176 when each window ran to the
    next joint motion), and the stored RC program of each setup one per
    group (one for all three groups before)."""

    def counted(run_all):
        solve_calls.clear()
        run_all()
        for lengths, _vmaxes, _accels, blends, *_entry in solve_calls:
            assert len(lengths) > 1 and None not in blends[1:-1]
        return len(solve_calls)

    def streamed():
        for seed in range(4):
            plan = ContinuousSkillPlan(tuple(random_motions(random.Random(seed), 120)))
            run(ContinuousMotionProgram([plan]), RobotExecutor())

    assert counted(streamed) == 80
    for cfg in (SETUP_A, SETUP_B):
        assert counted(lambda: run_benchmark(cfg, etypes=(ExecutionType.RC,), reps=1)) == 3


def test_one_native_window_times_each_segment_once_per_round(solve_calls, monkeypatch):
    """The only plan of a seeded 200-motion blended LIN program: the
    reference times its segments 1,984 times, the linear solver 810, and
    the program's 200 activations time none, as the solver hands over the
    straight seconds of every motion."""
    counts = Counter()

    def counting(module, name):
        timing = getattr(module, name)

        def counted(*a):
            counts[module.__name__] += 1
            return timing(*a)

        monkeypatch.setattr(module, name, counted)

    counting(trajectory, "segment_time")
    native_baseline([lin_program(random.Random(0xC0), 200)])
    assert len(solve_calls) == 1
    args = solve_calls[0]
    assert len(args[0]) == 200
    program_counts = counts.copy()
    counts.clear()
    counting(reference_solver, "_segment_time")
    solve_corners(*args)
    reference_solver.solve_corners(*args)
    assert counts == {"skillbench.trajectory": 810, "reference_solver": 1984}
    assert program_counts == {"skillbench.trajectory": 810}


def alternating_stop_chain(corners: int):
    """``corners`` interior corners alternating between an arc that passes
    every test and an exact stop: one arc per run of the fallback."""
    n = corners + 1
    blend = blend_geometry(0.6, 0.2, 4000.0, 4000.0, 4.0e6)
    blends = [blend if i % 2 else None for i in range(n)] + [None]
    return [2.0] * n, [4000.0] * n, [4.0e6] * n, blends


def test_run_fallback_scales_linearly():
    """Eight times the corners cost less than sixteen times the time (linear
    is eight); the fallback that listed the arcs of every run anew
    measured 27-34."""

    def best_of_3(args):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            solve_corners(*args)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = alternating_stop_chain(400), alternating_stop_chain(3200)
    assert solve_corners(*large)[1] == large[3]  # every arc survives one round
    assert best_of_3(large) / best_of_3(small) < 16


def eaten_segment_chain(arcs: int, losing: bool):
    """``arcs`` arcs that pass every test, and in the middle one more whose
    truncation eats its next segment, before an exact stop: the backward
    pass pins that corner to zero speed, so round 1 drops it.  Without
    ``losing`` that corner is an exact stop from the start."""
    n = arcs + 3
    m = n // 2
    blend = blend_geometry(0.6, 0.2, 4000.0, 4000.0, 4.0e6)
    blends = [None] + [blend] * (n - 1) + [None]
    blends[m + 1] = None
    if not losing:
        blends[m] = None
    lengths = [2.0] * n
    lengths[m] = blend.truncation
    return lengths, [4000.0] * n, [4.0e6] * n, blends


def test_a_later_round_costs_what_its_drop_changed(monkeypatch):
    """The square roots a solve takes with the losing blend, less those it
    takes with that blend already dropped, are as many on 3,200 arcs as on
    400: the second round re-solves only the corners next to the drop.  A
    solver that re-ran both passes over the window took two more roots per
    corner."""
    roots = Counter()
    sqrt = math.sqrt

    def counted(x):
        roots["sqrt"] += 1
        return sqrt(x)

    monkeypatch.setattr(math, "sqrt", counted)
    extra = []
    for arcs in (400, 3200):
        counts = []
        kept = eaten_segment_chain(arcs, losing=False)[3]
        for losing in (True, False):
            roots.clear()
            blends = solve_corners(*eaten_segment_chain(arcs, losing))[1]
            counts.append(roots["sqrt"])
            assert blends == kept and sum(b is not None for b in kept) == arcs
        extra.append(counts[0] - counts[1])
    assert extra[0] == extra[1], extra
