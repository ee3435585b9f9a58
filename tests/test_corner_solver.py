"""The corner-speed solver against its unedited quadratic predecessor.

``reference_solver.solve_corners`` is the solver before each degrade round
did linear work.  On windows captured from native, streamed and benchmark
runs, and on seeded chains built to reach every degrade path, the linear
solver must return bit-identical speeds and the very same blend objects,
or raise the same exception.  Two more tests pin what the rewrite bought:
the number of segment timings of one native window, and linear scaling of
the run fallback.
"""

import linecache
import math
import random
import sys
import time
from collections import Counter

import pytest

from skillbench import trajectory
from skillbench.bench import SETUP_A, SETUP_B, run_benchmark
from skillbench.core import ContinuousSkillPlan, ExecutionType, MotionCommand, MotionType, Pose
from skillbench.fieldbus_sim import run
from skillbench.plc_trigger import ContinuousMotionProgram
from skillbench.robot_executor import RobotExecutor
from skillbench.trajectory import InfeasibleBoundary, blend_geometry, solve_corners

import reference_solver
from stream_harness import native_baseline, random_motions
from test_trajectory import two_losing_runs


def assert_matches_reference(args):
    """``solve_corners(*args)`` returns what the reference returns, to the
    bit and to the object, or raises the same exception; returns the
    reference's exception, if any."""
    try:
        want_speeds, want_blends = reference_solver.solve_corners(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            solve_corners(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return exc
    speeds, blends = solve_corners(*args)
    assert repr(speeds) == repr(want_speeds)  # repr round-trips every float
    assert len(blends) == len(want_blends)
    assert all(got is want for got, want in zip(blends, want_blends))
    return None


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
    the speeds and truncations the previous plan committed."""
    for seed in range(4):
        plan = ContinuousSkillPlan(tuple(random_motions(random.Random(seed), 120)))
        run(ContinuousMotionProgram([plan]), RobotExecutor())
    assert sum(args[4] > 0.0 for args in solve_calls) > 20
    for args in solve_calls:
        assert_matches_reference(args)


@pytest.mark.parametrize("cfg", [SETUP_A, SETUP_B], ids=["A", "B"])
def test_benchmark_rc_windows_match_the_reference(solve_calls, cfg):
    """The paper's stored RC programs, whose windows span several groups."""
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
    """The seeded two-run window whose blends only the run fallback drops."""
    (l1, v1, a1, b1), (l2, v2, a2, b2) = two_losing_runs()
    assert_matches_reference((l1, v1, a1, b1))
    assert_matches_reference((l1 + l2, v1 + v2, a1 + a2, b1[:-1] + b2))


def test_an_arc_is_tested_again_when_only_its_next_speed_changed():
    """Two chains (found by a search of 150,000 ``random_chain`` seeds) in
    which a later degrade round changes only the speed at the corner after
    an arc that passed an earlier round, and the arc's verdict with it: an
    arc that remembered its inputs without that speed would keep it."""
    for seed in (80836, 93174):
        assert_matches_reference(random_chain(random.Random(seed)))


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


# --- cost ------------------------------------------------------------------------


def test_one_native_window_times_each_segment_once_per_round(solve_calls, monkeypatch):
    """The first plan of a seeded 200-motion blended LIN program: the
    reference times its segments 1,984 times, the linear solver 1,006."""
    native_baseline([lin_program(random.Random(0xC0), 200)])
    args = solve_calls[0]
    assert len(args[0]) == 200
    counts = Counter()

    def counting(module):
        timing = module._segment_time

        def counted(*a):
            counts[module.__name__] += 1
            return timing(*a)

        monkeypatch.setattr(module, "_segment_time", counted)

    counting(trajectory)
    counting(reference_solver)
    solve_corners(*args)
    reference_solver.solve_corners(*args)
    assert counts == {"skillbench.trajectory": 1006, "reference_solver": 1984}


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
