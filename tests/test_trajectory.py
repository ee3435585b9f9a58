"""Timing model: segment profiles, corner blends, corner speeds of a group,
and the timing the native executor runs.

The timing oracle here integrates the position-domain speed limit curve
    v(x) = min(v_max, sqrt(v_in^2 + 2 a x), sqrt(v_out^2 + 2 a (L - x)))
numerically, which is independent of the closed-form arithmetic under test.
"""

import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.integrate import quad

from skillbench import robot_executor, trajectory
from skillbench.core import ContinuousSkillPlan, JointTarget, MotionCommand, MotionType, Pose
from skillbench.robot_executor import NativeExecutor
from skillbench.trajectory import (
    COLLINEAR_EPS,
    BlendGeometry,
    InfeasibleBoundary,
    ReversalAngle,
    blend_geometry,
    corner_blend,
    motion_time,
    ptp_time,
    segment_time,
    solve_corners,
)
from skillbench.wire import CommandFrame, CommandWord, RobotState, encode_command_frame

from stream_harness import f32


def integrated_time(length, v_max, accel, v_in, v_out):
    """Numerically integrate t = dx / v(x) over the speed limit curve.

    The accelerating and decelerating pieces use the substitution x = u^2
    (resp. x = L - u^2) so a zero boundary speed stays integrable.
    """
    if length == 0.0:
        return 0.0
    a = accel
    x_cross = (v_out**2 - v_in**2 + 2.0 * a * length) / (4.0 * a)
    x_rise = (v_max**2 - v_in**2) / (2.0 * a)
    x_fall = length - (v_max**2 - v_out**2) / (2.0 * a)
    xp = min(x_rise, x_cross)
    xq = max(x_fall, x_cross)
    total = 0.0
    if xp > 0.0:
        total += quad(
            lambda u: 2.0 * u / math.sqrt(v_in**2 + 2.0 * a * u * u),
            0.0,
            math.sqrt(xp),
            epsabs=1e-11,
            epsrel=1e-11,
            limit=200,
        )[0]
    if xq > xp:
        total += (xq - xp) / v_max
    if xq < length:
        total += quad(
            lambda u: 2.0 * u / math.sqrt(v_out**2 + 2.0 * a * u * u),
            0.0,
            math.sqrt(length - xq),
            epsabs=1e-11,
            epsrel=1e-11,
            limit=200,
        )[0]
    return total


# --- segment timing -----------------------------------------------------------


def test_trapezoid_with_cruise():
    # 100 mm at v 10, a 100, rest to rest: 0.1 s ramps, 99 mm cruise
    t = segment_time(100.0, 10.0, 100.0, 0.0, 0.0)
    assert t == pytest.approx(10.1, abs=1e-12)


def test_triangular_profile():
    # too short to reach the cap: peak sqrt(a L) = 10, t = 2 sqrt(L / a)
    t = segment_time(1.0, 1000.0, 100.0, 0.0, 0.0)
    assert t == pytest.approx(0.2, abs=1e-12)


def test_boundary_speeds_shorten_ramps():
    t = segment_time(100.0, 10.0, 100.0, 5.0, 5.0)
    assert t == pytest.approx(10.025, abs=1e-12)


def test_pure_ramp_when_exit_equals_reachable():
    # v_out^2 = 2 a L exactly: accelerate the whole way
    assert segment_time(2.0, 10.0, 25.0, 0.0, 10.0) == pytest.approx(10.0 / 25.0, abs=1e-12)


def test_zero_length_segment():
    assert segment_time(0.0, 10.0, 100.0, 3.0, 3.0) == 0.0
    with pytest.raises(InfeasibleBoundary):
        segment_time(0.0, 10.0, 100.0, 3.0, 4.0)


def test_infeasible_boundary_raises():
    with pytest.raises(InfeasibleBoundary):
        segment_time(1.0, 10.0, 1.0, 0.0, 10.0)
    with pytest.raises(InfeasibleBoundary):
        segment_time(1.0, 10.0, 1.0, 10.0, 0.0)


def random_feasible_segment(rng: random.Random):
    """``(length, v_max, accel, v_in, v_out)`` that ``segment_time`` can
    connect, boundary speeds within 0..v_max."""
    length = rng.uniform(0.01, 400.0)
    accel = rng.uniform(10.0, 4000.0)
    v_max = rng.uniform(1.0, 400.0)
    budget = 2.0 * accel * length * 0.998
    v_in = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, min(v_max, math.sqrt(budget)))
    lo = math.sqrt(max(0.0, v_in * v_in - budget))
    hi = min(v_max, math.sqrt(v_in * v_in + budget))
    if rng.random() < 0.3 and lo == 0.0:
        v_out = 0.0
    else:
        v_out = rng.uniform(lo, hi)
    return length, v_max, accel, v_in, v_out


def test_segment_time_matches_integration_oracle():
    rng = random.Random(0xBEE)
    worst = 0.0
    for _ in range(300):
        seg = random_feasible_segment(rng)
        got = segment_time(*seg)
        want = integrated_time(*seg)
        worst = max(worst, abs(got - want))
    assert worst < 1e-6, f"worst deviation {worst}"


def test_segment_time_lower_bounds():
    rng = random.Random(0xF00)
    for _ in range(300):
        length, v_max, accel, v_in, v_out = random_feasible_segment(rng)
        t = segment_time(length, v_max, accel, v_in, v_out)
        assert t >= length / v_max - 1e-12
        assert t >= abs(v_out - v_in) / accel - 1e-12


def test_ptp_time_uses_dominant_axis():
    # dominant delta 90 deg at v 180, a 720: 22.5 deg ramps, 45 deg cruise
    assert ptp_time((90.0, 45.0, 0.0), 180.0, 720.0) == pytest.approx(0.75, abs=1e-12)
    assert ptp_time((-90.0, 45.0), 180.0, 720.0) == pytest.approx(0.75, abs=1e-12)
    assert ptp_time((0.0, 0.0), 180.0, 720.0) == 0.0
    with pytest.raises(ValueError):
        ptp_time((1.0,), 0.0, 720.0)


# --- corner blends ------------------------------------------------------------


def test_blend_right_angle():
    g = blend_geometry(math.pi / 2, 10.0, 250.0, 250.0, 2000.0)
    assert g.radius == pytest.approx(10.0, rel=1e-12)
    assert g.truncation == 10.0
    assert g.arc_length == pytest.approx(10.0 * math.pi / 2, rel=1e-12)
    assert g.v_blend == pytest.approx(math.sqrt(20000.0), rel=1e-12)


def test_blend_speed_capped_by_segment_speeds():
    g = blend_geometry(math.pi / 2, 10.0, 30.0, 50.0, 2000.0)
    assert g.v_blend == 30.0


def test_blend_collinear_passthrough():
    g = blend_geometry(0.0, 10.0, 100.0, 80.0, 2000.0)
    assert g.radius == math.inf
    assert g.arc_length == 0.0
    assert g.truncation == 0.0
    assert g.v_blend == 80.0


def test_a_corner_flatter_than_the_collinear_threshold_passes_through():
    # a turn of 1e-10 rad needs no approx distance: corner_blend passes it
    # through at the slower speed, as a straight corner; one of 2e-9 rad
    # without an approx distance stops
    legs = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 1e-10, 0.0)]
    g = corner_blend(*legs, 0.0, 1.0, 1.0, 100.0, 80.0, 2000.0, 2000.0)
    assert (g.truncation, g.arc_length, g.v_blend) == (0.0, 0.0, 80.0)
    legs[2] = (2.0, 2e-9, 0.0)
    assert corner_blend(*legs, 0.0, 1.0, 1.0, 100.0, 80.0, 2000.0, 2000.0) is None


def test_blend_zero_approx_is_exact_stop():
    g = blend_geometry(math.pi / 2, 0.0, 100.0, 100.0, 2000.0)
    assert g.v_blend == 0.0
    assert g.arc_length == 0.0


@pytest.mark.parametrize(
    "angle, approx",
    [(0.0, 10.0), (COLLINEAR_EPS, 0.0), (math.pi / 2, 0.0), (math.pi / 2, 10.0), (3.0, 0.25)],
    ids=["collinear", "collinear-zero-approx", "zero-approx", "arc", "sharp-arc"],
)
def test_blend_equals_a_constructed_geometry(angle, approx):
    # blend_geometry skips the frozen __init__; what it builds must equal,
    # hash and print like the same fields passed through the constructor
    g = blend_geometry(angle, approx, 100.0, 80.0, 2000.0)
    built = BlendGeometry(**{f.name: getattr(g, f.name) for f in fields(BlendGeometry)})
    assert g == built and built == g
    assert vars(g) == vars(built)
    assert hash(g) == hash(built)
    assert repr(g) == repr(built)


def test_blend_rejects_reversal_and_bad_input():
    with pytest.raises(ReversalAngle):
        blend_geometry(math.pi, 10.0, 100.0, 100.0, 2000.0)
    with pytest.raises(ValueError):
        blend_geometry(-0.1, 10.0, 100.0, 100.0, 2000.0)
    with pytest.raises(ValueError):
        blend_geometry(1.0, -1.0, 100.0, 100.0, 2000.0)
    with pytest.raises(ValueError):
        blend_geometry(1.0, 10.0, 0.0, 100.0, 2000.0)


def _points_segment_distance(pts, a, b):
    ab = b - a
    t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)


def sample_arc(prev, corner, nxt, geom, samples=257):
    """Reconstruct the tangent arc in space and sample it (Rodrigues rotation)."""
    p, c, n = (np.asarray(q, dtype=float) for q in (prev, corner, nxt))
    u = (c - p) / np.linalg.norm(c - p)
    w = (n - c) / np.linalg.norm(n - c)
    t1 = c - u * geom.truncation
    t2 = c + w * geom.truncation
    axis = np.cross(u, w)
    axis = axis / np.linalg.norm(axis)
    perp = np.cross(axis, u)
    perp = perp / np.linalg.norm(perp)
    center = t1 + perp * geom.radius
    spoke = t1 - center
    th = np.linspace(0.0, geom.angle, samples)[:, None]
    pts = (
        center
        + spoke * np.cos(th)
        + np.cross(axis, spoke) * np.sin(th)
        + axis * np.dot(axis, spoke) * (1.0 - np.cos(th))
    )
    # sampling self-check: the rotated spoke must land on the exit tangent point
    assert np.linalg.norm(pts[-1] - t2) <= 1e-9 * max(1.0, float(np.linalg.norm(c)))
    return pts, center


def test_arc_deviation_stays_within_approx():
    """Sampled arcs never stray farther than approx from the commanded legs,
    and the arc's closest approach to the corner is approx (1 - cos(angle/2))
    / sin(angle/2), the radius approx / tan(angle/2) fixes it."""
    rng = random.Random(0xA12C)
    for _ in range(80):
        corner = np.array([rng.uniform(-50, 50) for _ in range(3)])
        d1 = np.array([rng.gauss(0, 1) for _ in range(3)])
        d2 = np.array([rng.gauss(0, 1) for _ in range(3)])
        if min(np.linalg.norm(d1), np.linalg.norm(d2)) < 1e-3:
            continue
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        prev = corner - d1 * rng.uniform(30.0, 100.0)
        nxt = corner + d2 * rng.uniform(30.0, 100.0)
        angle = math.atan2(np.linalg.norm(np.cross(d1, d2)), float(np.dot(d1, d2)))
        if angle <= 1e-2 or angle >= math.pi - 1e-2:
            continue
        approx = rng.uniform(0.5, 10.0)
        geom = blend_geometry(angle, approx, 250.0, 250.0, 2000.0)
        pts, center = sample_arc(prev, corner, nxt, geom)
        dev = np.maximum.reduce(
            np.minimum(
                _points_segment_distance(pts, prev, corner),
                _points_segment_distance(pts, corner, nxt),
            )
        )
        assert dev <= approx + 1e-9
        # closest approach of the full circle to the corner, done geometrically
        closest = float(np.linalg.norm(corner - center)) - geom.radius
        half = 0.5 * angle
        want = approx * (1.0 - math.cos(half)) / math.sin(half)
        assert closest == pytest.approx(want, abs=1e-9 * (1.0 + geom.radius))


# --- whole groups -------------------------------------------------------------


def group_profile(plan, waypoints, blending=True):
    """``(speeds, blends, times)`` of one continuous group from rest to rest
    along ``waypoints`` (its start, then every motion's target): the corner
    speeds and kept blends from ``solve_corners``, and each motion's
    ``(straight, arc)`` seconds from ``motion_time``, as the motion engine
    calls them.  Interior corner i proposes a blend (``corner_blend``) with
    the approx distance of the motion ending there; without ``blending``
    every corner stops."""
    motions, pts = plan.motions, [p.position for p in waypoints]
    n = len(motions)
    lengths = [math.dist(pts[i], pts[i + 1]) for i in range(n)]
    vmaxes = [m.velocity for m in motions]
    accels = [m.acceleration for m in motions]
    blends = [None] * (n + 1)
    for i in range(1, n if blending else 1):
        blends[i] = corner_blend(
            pts[i - 1], pts[i], pts[i + 1], motions[i - 1].approx_distance,
            lengths[i - 1], lengths[i], vmaxes[i - 1], vmaxes[i], accels[i - 1], accels[i],
        )
    speeds, blends, _straight = solve_corners(lengths, vmaxes, accels, blends)
    trunc = [0.0 if b is None else b.truncation for b in blends]
    times = [
        motion_time(
            lengths[i], vmaxes[i], accels[i], speeds[i], speeds[i + 1], trunc[i], blends[i + 1]
        )
        for i in range(n)
    ]
    return speeds, blends, times


def total_time(times):
    return sum(straight + arc for straight, arc in times)


def degraded_corners(plan, blends):
    """Interior corners whose motion asks for a blend that did not survive."""
    return tuple(
        i for i in range(1, len(plan.motions))
        if blends[i] is None and plan.motions[i - 1].approx_distance > 0.0
    )


def whole_us(seconds):
    """A motion's executed duration: its seconds rounded up to whole µs."""
    return max(0, math.ceil(seconds * 1e6 - 1e-12))


def run_native(plans):
    """Run plans on NativeExecutor with START held; durations do not depend
    on the cycle, so a long cycle keeps the run short."""
    ex = NativeExecutor(plans, capture=True)
    start = encode_command_frame(CommandFrame(command=CommandWord.START))
    t = 0
    while ex.state is not RobotState.DONE:
        ex.tick(t, start)
        t += 1_000_000
    return ex


def group_durations_us(ex, plans):
    """Executed durations per plan, in order, one list of µs per plan."""
    out, i = [], 0
    for plan in plans:
        n = len(plan.motions)
        out.append([dur for _first, _n, _target, dur in ex.executed[i : i + n]])
        i += n
    return out


def executed_us(plan):
    """The µs each motion of ``plan`` takes, run alone from the origin."""
    return group_durations_us(run_native([plan]), [plan])[0]


def _lin(target, v=250.0, a=2000.0, approx=0.0):
    return MotionCommand(
        motion_type=MotionType.LIN_CARTESIAN,
        target=target,
        velocity=v,
        acceleration=a,
        approx_distance=approx,
    )


def l_shape(approx=10.0):
    plan = ContinuousSkillPlan(
        (
            _lin(Pose(100.0, 0.0, 0.0), approx=approx),
            _lin(Pose(100.0, 100.0, 0.0)),
        )
    )
    waypoints = [Pose(0.0, 0.0, 0.0), Pose(100.0, 0.0, 0.0), Pose(100.0, 100.0, 0.0)]
    return plan, waypoints


def test_group_profile_l_shape_blended():
    """Hand-derived right-angle blend: r = 10, v_arc = sqrt(2000 * 10).  The
    solver passes the corner at v_arc, and the native executor runs each
    motion in its hand-derived time."""
    plan, wps = l_shape()
    v_arc = math.sqrt(20000.0)
    seg = (2 * 250.0 - 0.0 - v_arc) / 2000.0 + (90.0 - 15.625 - 10.625) / 250.0
    arc = (10.0 * math.pi / 2) / v_arc
    speeds, blends, times = group_profile(plan, wps)
    assert speeds == pytest.approx([0.0, v_arc, 0.0], rel=1e-12)
    assert [t for pair in times for t in pair] == pytest.approx([seg, arc, seg, 0.0], rel=1e-12)
    assert degraded_corners(plan, blends) == ()
    assert executed_us(plan) == [whole_us(seg + arc), whole_us(seg)]


def test_group_profile_l_shape_stops():
    plan, wps = l_shape()
    per_seg = (2 * 250.0) / 2000.0 + (100.0 - 31.25) / 250.0
    speeds, blends, times = group_profile(plan, wps, blending=False)
    assert total_time(times) == pytest.approx(2 * per_seg, rel=1e-12)
    assert speeds == [0.0, 0.0, 0.0]
    assert blends == [None, None, None]
    assert [arc for _straight, arc in times] == [0.0, 0.0]
    # the same path with approx 0 executes as two exact stops
    assert executed_us(l_shape(approx=0.0)[0]) == [whole_us(per_seg)] * 2


def test_group_profile_collinear_passthrough():
    plan = ContinuousSkillPlan(
        (_lin(Pose(50.0, 0.0, 0.0), approx=10.0), _lin(Pose(100.0, 0.0, 0.0)))
    )
    wps = [Pose(0.0, 0.0, 0.0), Pose(50.0, 0.0, 0.0), Pose(100.0, 0.0, 0.0)]
    speeds, blends, times = group_profile(plan, wps)
    # straight corner carries speed without an arc; one continuous trapezoid
    assert [arc for _straight, arc in times] == [0.0, 0.0]
    assert speeds[1] > 0.0
    whole = segment_time(100.0, 250.0, 2000.0, 0.0, 0.0)
    assert total_time(times) == pytest.approx(whole, rel=1e-9)
    assert degraded_corners(plan, blends) == ()
    # each motion is rounded up on its own
    assert whole_us(whole) <= sum(executed_us(plan)) <= whole_us(whole) + 1


def test_group_profile_degrades_reversal():
    plan = ContinuousSkillPlan(
        (_lin(Pose(100.0, 0.0, 0.0), approx=10.0), _lin(Pose(0.0, 0.0, 0.0)))
    )
    wps = [Pose(0.0, 0.0, 0.0), Pose(100.0, 0.0, 0.0), Pose(0.0, 0.0, 0.0)]
    legs = [p.position for p in wps]
    assert corner_blend(*legs, 10.0, 100.0, 100.0, 250.0, 250.0, 2000.0, 2000.0) is None
    # a turn within 1e-9 rad of a reversal stops as well (pi - 1e-10 here)
    near = [(0.0, 0.0, 0.0), (100.0, 0.0, 0.0), (0.0, 1e-8, 0.0)]
    assert corner_blend(*near, 10.0, 100.0, 100.0, 250.0, 250.0, 2000.0, 2000.0) is None
    speeds, blends, times = group_profile(plan, wps)
    assert degraded_corners(plan, blends) == (1,)
    assert speeds[1] == 0.0
    assert times[0][1] == 0.0


def test_group_profile_degrades_short_segments():
    # legs of 15 mm cannot host a 10 mm truncation on both sides
    plan, wps = l_shape()
    wps = [Pose(0.0, 0.0, 0.0), Pose(15.0, 0.0, 0.0), Pose(15.0, 15.0, 0.0)]
    legs = [p.position for p in wps]
    assert corner_blend(*legs, 10.0, 15.0, 15.0, 250.0, 250.0, 2000.0, 2000.0) is None
    assert degraded_corners(plan, group_profile(plan, wps)[1]) == (1,)


def test_group_profile_degrades_stuck_blend_speed():
    # a motion speed below the minimum blend speed cannot sustain an arc:
    # the corner rule proposes the blend, the solver drops it
    plan = ContinuousSkillPlan(
        (
            _lin(Pose(100.0, 0.0, 0.0), v=5e-10, approx=10.0),
            _lin(Pose(100.0, 100.0, 0.0)),
        )
    )
    wps = [Pose(0.0, 0.0, 0.0), Pose(100.0, 0.0, 0.0), Pose(100.0, 100.0, 0.0)]
    legs = [p.position for p in wps]
    assert corner_blend(*legs, 10.0, 100.0, 100.0, 5e-10, 250.0, 2000.0, 2000.0) is not None
    speeds, blends, _times = group_profile(plan, wps)
    assert degraded_corners(plan, blends) == (1,)
    assert speeds[1] == 0.0


def test_a_blend_that_ties_stopping_is_kept(monkeypatch):
    """Arcs slower than stopping degrade; an arc exactly as fast stays.
    Segments timed at their constant top speed make the tie exact: two
    12 mm legs at 1 mm/s take 24 s stopping at the corner, and as long
    when a 2 mm arc at 1 mm/s replaces the 1 mm truncated from each."""
    monkeypatch.setattr(
        trajectory, "segment_time", lambda length, v_max, accel, v_in, v_out: length / v_max
    )
    blend = BlendGeometry(
        angle=math.pi / 2, radius=2.0 / (math.pi / 2), arc_length=2.0, v_blend=1.0, truncation=1.0
    )
    speeds, blends, _ = solve_corners([12.0, 12.0], [1.0, 1.0], [1e3, 1e3], [None, blend, None])
    assert blends[1] is blend and speeds[1] == 1.0


def _losing_run(lengths, v, a, corners):
    """Arguments of ``solve_corners`` for one run between exact stops; each
    interior corner i is ``(angle, approx)`` and blends with the speeds of
    its two segments and the lower of their accelerations."""
    blends = [None]
    for i, (angle, approx) in enumerate(corners, 1):
        blends.append(blend_geometry(angle, approx, v[i - 1], v[i], min(a[i - 1], a[i])))
    return list(lengths), list(v), list(a), blends + [None]


def two_losing_runs():
    """Two runs (found by a seeded search) whose blends each pass the
    single-corner test but lose to stopping as a whole."""
    run1 = _losing_run(
        (17.06886306570025, 2.726797741268115, 14.134610320490856),
        (1000.0, 250.0, 250.0),
        (2000.0, 500.0, 2000.0),
        [(2.92803720331269, 0.5384283142377055), (1.5174363475366914, 0.42994031381384545)],
    )
    run2 = _losing_run(
        (24.146055005426184, 1.6579251733979345, 10.97144742897539),
        (250.0, 100.0, 250.0),
        (2000.0, 500.0, 2000.0),
        [(2.7333978385484032, 0.44815133488887904), (2.466720662787861, 0.660893890312675)],
    )
    return run1, run2


def test_two_losing_runs_in_one_window_both_drop():
    """Two losing runs joined by an exact stop: the run fallback must drop
    the blends of both runs in one solve, not only those of the first."""
    (l1, v1, a1, b1), (l2, v2, a2, b2) = two_losing_runs()
    for run in ((l1, v1, a1, b1), (l2, v2, a2, b2)):
        assert solve_corners(*run)[1] == [None] * 4
    speeds, blends, _straight = solve_corners(l1 + l2, v1 + v2, a1 + a2, b1[:-1] + b2)
    assert blends == [None] * 7
    assert speeds == [0.0] * 7


def random_group(rng: random.Random):
    n = rng.randint(2, 6)
    pts = [Pose(0.0, 0.0, 0.0)]
    motions = []
    for i in range(n):
        d = np.array([rng.gauss(0, 1) for _ in range(3)])
        while np.linalg.norm(d) < 1e-3:
            d = np.array([rng.gauss(0, 1) for _ in range(3)])
        d = d / np.linalg.norm(d)
        step = rng.uniform(20.0, 120.0)
        last = pts[-1]
        pts.append(Pose(last.x + d[0] * step, last.y + d[1] * step, last.z + d[2] * step))
        approx = rng.uniform(0.0, 15.0) if i < n - 1 and rng.random() < 0.7 else 0.0
        motions.append(
            _lin(pts[-1], v=rng.uniform(50.0, 300.0), a=rng.uniform(500.0, 3000.0),
                 approx=approx)
        )
    return ContinuousSkillPlan(tuple(motions)), pts


def test_blending_never_slower_than_stopping():
    rng = random.Random(0x5EED)
    for _ in range(150):
        plan, wps = random_group(rng)
        speeds, blends, times = group_profile(plan, wps)
        stops = total_time(group_profile(plan, wps, blending=False)[2])
        blended = total_time(times)
        assert blended <= stops + 1e-9
        assert speeds[0] == 0.0
        assert speeds[-1] == 0.0
        assert len(times) == len(plan.motions)
        assert len(speeds) == len(plan.motions) + 1
        if blended == stops:
            # equality only when nothing was actually blended away
            for i in range(1, len(plan.motions)):
                if blends[i] is not None and plan.motions[i - 1].approx_distance > 0.0:
                    assert speeds[i] == 0.0 or times[i - 1][1] == 0.0


def test_profile_scales_exactly_with_doubled_geometry():
    """Doubling lengths, speeds, accels and approx leaves every duration
    unchanged (all the arithmetic scales by exact powers of two)."""
    rng = random.Random(0xD0B)
    for _ in range(60):
        plan, wps = random_group(rng)
        doubled_motions = tuple(
            MotionCommand(
                motion_type=m.motion_type,
                target=Pose(m.target.x * 2, m.target.y * 2, m.target.z * 2),
                velocity=m.velocity * 2,
                acceleration=m.acceleration * 2,
                approx_distance=m.approx_distance * 2,
            )
            for m in plan.motions
        )
        doubled = ContinuousSkillPlan(doubled_motions)
        doubled_wps = [Pose(p.x * 2, p.y * 2, p.z * 2) for p in wps]
        _, base_blends, base = group_profile(plan, wps)
        _, big_blends, big = group_profile(doubled, doubled_wps)
        assert total_time(big) == pytest.approx(total_time(base), rel=1e-12)
        assert degraded_corners(doubled, big_blends) == degraded_corners(plan, base_blends)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_sharp_corners_degrade_rather_than_crawl(seed):
    """Near-reversal corners force tiny blend radii; the solver must prefer
    an exact stop over crawling the arc and never lose to stopping."""
    rng = random.Random(seed)
    leg = rng.uniform(30.0, 150.0)
    back = rng.uniform(0.6, 0.98)  # nearly double back
    ang = math.pi * back
    wps = [
        Pose(0.0, 0.0, 0.0),
        Pose(leg, 0.0, 0.0),
        Pose(leg + math.cos(ang) * leg, math.sin(ang) * leg, 0.0),
    ]
    plan = ContinuousSkillPlan(
        (_lin(wps[1], approx=rng.uniform(1.0, min(10.0, leg / 2.5))), _lin(wps[2]))
    )
    blended = total_time(group_profile(plan, wps)[2])
    stops = total_time(group_profile(plan, wps, blending=False)[2])
    assert blended <= stops + 1e-12


# --- executed timing against the whole-group helper ------------------------------


def chained_groups(rng: random.Random, count: int):
    """``count`` random groups, each starting where the previous one ends,
    with motion types mixed between LIN and PTP-Cartesian and every scalar
    rounded to f32 as the wire codec does, so the executor and the helper
    see identical numbers.  Returns the plans and their start points."""
    plans, starts = [], []
    origin = (0.0, 0.0, 0.0)
    for _ in range(count):
        plan, _wps = random_group(rng)
        motions = tuple(
            replace(
                m,
                motion_type=rng.choice((MotionType.LIN_CARTESIAN, MotionType.PTP_CARTESIAN)),
                target=Pose(*(f32(o + c) for o, c in zip(origin, m.target.position))),
                velocity=f32(m.velocity),
                acceleration=f32(m.acceleration),
                approx_distance=f32(m.approx_distance),
            )
            for m in plan.motions
        )
        plans.append(ContinuousSkillPlan(motions))
        starts.append(Pose(*origin))
        origin = motions[-1].target.position
    return plans, starts


def test_executed_groups_match_the_profile():
    """Back-to-back groups in one native window: every executed motion takes
    exactly its whole-group time (straight plus arc), rounded up to whole µs
    as the engine does."""
    rng = random.Random(0xE1EC)
    for _ in range(400):
        plans, starts = chained_groups(rng, rng.randint(1, 3))
        executed = group_durations_us(run_native(plans), plans)
        for plan, start, got in zip(plans, starts, executed):
            wps = [start] + [m.target for m in plan.motions]
            _speeds, _blends, times = group_profile(plan, wps)
            assert got == [whole_us(straight + arc) for straight, arc in times]


def test_executor_blending_never_slower_than_stopping():
    """The executed time of every blended group is at most that of the same
    group with every approx distance zero (up to µs rounding per motion)."""
    rng = random.Random(0xB1E0)
    for _ in range(400):
        plans, _starts = chained_groups(rng, rng.randint(1, 3))
        stopping = [
            ContinuousSkillPlan(tuple(replace(m, approx_distance=0.0) for m in p.motions))
            for p in plans
        ]
        blended = map(sum, group_durations_us(run_native(plans), plans))
        stopped = map(sum, group_durations_us(run_native(stopping), stopping))
        for plan, b, s in zip(plans, blended, stopped):
            assert b <= s + len(plan.motions), (b, s)


def test_native_program_solves_each_cartesian_run_once(monkeypatch):
    """A 200-motion blended program split by two joint moves into three
    Cartesian runs is solved three times, and each corner's blend is built
    once."""
    calls = {"solve": 0, "blend": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        robot_executor, "solve_corners", counted("solve", robot_executor.solve_corners)
    )
    monkeypatch.setattr(
        trajectory, "blend_geometry", counted("blend", trajectory.blend_geometry)
    )
    rng = random.Random(0x200)
    motions, pos = [], np.zeros(3)
    for i in range(200):
        if i in (70, 140):
            joints = JointTarget(*(rng.uniform(-2.0, 2.0) for _ in range(6)))
            motions.append(MotionCommand(MotionType.PTP_JOINT, joints, 3000.0, 3.0e6))
            continue
        d = np.array([rng.gauss(0, 1) for _ in range(3)])
        pos = pos + d / np.linalg.norm(d) * rng.uniform(0.6, 3.0)
        approx = 0.0 if i == 199 else rng.uniform(0.05, 0.25)
        motions.append(_lin(Pose(*pos), v=4000.0, a=4.0e6, approx=approx))
    ex = run_native([ContinuousSkillPlan(tuple(motions))])
    assert len(ex.executed) == 200
    assert calls["solve"] == 3
    assert calls["blend"] <= 200
