"""Trapezoidal velocity profiles and circular corner blending.

The timing model is piecewise constant acceleration: every path segment is
traversed with a trapezoidal (or triangular, if the cruise speed is never
reached) velocity profile between given boundary speeds.  Corners inside a
continuous group are either exact stops (v=0), collinear pass-throughs, or
circular arc blends tangent to both segments at ``approx_distance`` from the
corner, traversed at constant speed.

One timing model, one function per decision: ``corner_blend`` proposes the
blend of one corner (or an exact stop), ``solve_corners`` fixes the corner
speeds of a chain and which blends survive, re-solving after each degrade
round only what its drops changed, and ``motion_time`` gives one motion's
straight and arc seconds, each from the closed form ``segment_time``.  The
robot executor's motion engine makes these calls, so the timing the
benchmark reports is this model's.  ``solve_corners`` also returns the
straight seconds of the segments its rounds timed at the final speeds; the
engine uses them as they are and calls ``motion_time`` only for the other
motions, so each motion is timed once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import turn_angle

# corners flatter than this count as collinear; tighter than pi minus this
# count as reversals
COLLINEAR_EPS = 1e-9
_REVERSAL_EPS = 1e-9
_FEAS_SLACK = 1e-9
_MIN_BLEND_SPEED = 1e-9


class InfeasibleBoundary(ValueError):
    """Boundary speeds cannot be connected over the segment length."""


class ReversalAngle(ValueError):
    """A blend was requested at a reversal (angle >= pi)."""


def segment_time(length: float, v_max: float, accel: float, v_in: float, v_out: float) -> float:
    """Minimum time to traverse a segment with a trapezoidal profile.

    Accelerates from v_in towards the peak (capped at v_max), cruises if the
    cap was reached, then decelerates to v_out.  Raises InfeasibleBoundary
    when |v_out^2 - v_in^2| > 2 * accel * length.
    """
    # ``d if d >= 0.0 else -d`` is ``abs(d)`` without the builtin's call
    # cost.  It can differ only in the sign of -0.0 or of a NaN: both
    # compare the same either way, and a speed difference is -0.0 only
    # when v_out is -0.0
    if length == 0.0:
        d = v_out - v_in
        if (d if d >= 0.0 else -d) > _FEAS_SLACK:
            raise InfeasibleBoundary("zero-length segment with unequal boundary speeds")
        return 0.0
    diff = v_out * v_out - v_in * v_in
    if diff < 0.0:
        diff = -diff
    budget = 2.0 * accel * length
    if diff > budget * (1.0 + 1e-12) + _FEAS_SLACK:
        raise InfeasibleBoundary(
            f"cannot go from {v_in} to {v_out} over {length} at accel {accel}"
        )
    if diff >= budget:
        # boundary case: pure acceleration or deceleration over the full length
        d = v_out - v_in
        return (d if d >= 0.0 else -d) / accel
    v_peak_sq = 0.5 * (budget + v_in * v_in + v_out * v_out)
    v_peak = math.sqrt(v_peak_sq)
    if v_peak <= v_max:
        # triangular: accelerate to v_peak, decelerate to v_out
        return (2.0 * v_peak - v_in - v_out) / accel
    d_acc = (v_max * v_max - v_in * v_in) / (2.0 * accel)
    d_dec = (v_max * v_max - v_out * v_out) / (2.0 * accel)
    t_cruise = (length - d_acc - d_dec) / v_max
    return (v_max - v_in) / accel + (v_max - v_out) / accel + t_cruise


def ptp_time(joint_deltas, v_max: float, accel: float) -> float:
    """Stop-to-stop PTP duration from the dominant (largest |delta|) axis."""
    if v_max <= 0.0 or accel <= 0.0:
        raise ValueError("joint dynamics must be positive")
    # the loop is ``max(abs(float(d)) for d in joint_deltas)`` without the
    # generator and the calls of ``max`` and ``abs``: the first of equal
    # magnitudes wins, and a negation keeps the sign of -0.0, which times
    # the same
    dominant = None
    for d in joint_deltas:
        d = float(d)
        if d < 0.0:
            d = -d
        if dominant is None or d > dominant:
            dominant = d
    if dominant is None:
        raise ValueError("ptp_time needs at least one joint delta")
    return segment_time(dominant, v_max, accel, 0.0, 0.0)


class BlendGeometry(NamedTuple):
    """Circular corner blend: tangent arc replacing an exact corner.

    ``truncation`` is the length cut from each adjacent segment (equal to the
    commanded approx distance), ``v_blend`` the constant speed on the arc.
    A collinear corner (angle 0) degenerates to a pass-through with infinite
    radius and no truncation.
    """

    angle: float
    radius: float
    arc_length: float
    v_blend: float
    truncation: float


def blend_geometry(
    angle: float, approx_distance: float, v1: float, v2: float, accel: float
) -> BlendGeometry:
    """Geometry and speed cap of a corner blend.

    angle is the turn angle in radians (0 collinear, pi reversal).  The arc
    is tangent to both segments at ``approx_distance`` from the corner:
    radius = approx / tan(angle/2), arc length = radius * angle, and the
    blend speed is min(v1, v2, sqrt(accel * radius)) from the centripetal
    acceleration limit.
    """
    if angle < 0.0:
        raise ValueError("angle must be >= 0")
    if angle >= math.pi:
        raise ReversalAngle(f"cannot blend a reversal (angle {angle})")
    if approx_distance < 0.0:
        raise ValueError("approx_distance must be >= 0")
    if v1 <= 0.0 or v2 <= 0.0 or accel <= 0.0:
        raise ValueError("speeds and accel must be positive")
    return _arc(angle, approx_distance, v1, v2, accel)


# ``_arc`` builds its blends with one positional ``tuple.__new__``, without
# the Python-level frame of the named tuple's own ``__new__``
_tuple_new = tuple.__new__


def _arc(angle, approx_distance, v1, v2, accel) -> BlendGeometry:
    """``blend_geometry`` for arguments it would accept, unchecked.  The
    minima are comparisons that keep the builtin ``min``'s choice, the
    first of equal values."""
    slower = v2 if v2 < v1 else v1
    if angle <= COLLINEAR_EPS:
        # straight continuation: no arc, no truncation, carry the slower speed
        return _tuple_new(BlendGeometry, (0.0, math.inf, 0.0, slower, 0.0))
    if approx_distance == 0.0:
        return _tuple_new(BlendGeometry, (angle, 0.0, 0.0, 0.0, 0.0))
    radius = approx_distance / math.tan(0.5 * angle)
    cap = math.sqrt(accel * radius)
    v_blend = cap if cap < slower else slower
    return _tuple_new(BlendGeometry, (angle, radius, radius * angle, v_blend, approx_distance))


def corner_blend(prev_pt, corner, next_pt, approx, len_in, len_out, v_in, v_out, a_in, a_out):
    """Candidate blend where a motion (length ``len_in``, limits ``v_in`` and
    ``a_in``, ``approx``) meets the next (``len_out``, ``v_out``, ``a_out``)
    on the legs ``prev_pt`` -> ``corner`` -> ``next_pt``; None for an exact
    stop.  Collinear corners pass through.  Other corners blend when they
    have an approx distance, turn short of a reversal, and both motions are
    at least twice the truncation long; a zero-length leg stops.  The
    limits must be positive and ``approx`` non-negative, as the robot checks
    each record's dynamics before it proposes a corner; the rule then
    admits only the arguments ``blend_geometry`` accepts, so the blend is
    built without its checks."""
    # a leg has zero length exactly when its ends agree in x, y and z:
    # ``math.dist`` of finite points is 0 only then
    if (prev_pt[0] == corner[0] and prev_pt[1] == corner[1] and prev_pt[2] == corner[2]) or (
        corner[0] == next_pt[0] and corner[1] == next_pt[1] and corner[2] == next_pt[2]
    ):
        return None
    angle = turn_angle(prev_pt, corner, next_pt)
    # ``b if b < a else a`` is ``min(a, b)`` without the builtin's call cost
    if angle > COLLINEAR_EPS and not (
        approx > 0.0
        and angle < math.pi - _REVERSAL_EPS
        and (len_out if len_out < len_in else len_in) >= 2.0 * approx
    ):
        return None
    return _arc(angle, approx, v_in, v_out, a_out if a_out < a_in else a_in)


def motion_time(length, v_max, accel, v_in, v_out, trunc_in, blend_out):
    """``(straight, arc)`` seconds of one motion of path length ``length``,
    entered at ``v_in`` with ``trunc_in`` already cut off by the blend
    behind it, and left at ``v_out`` through ``blend_out`` (None for an
    exact stop), whose truncation it also loses and whose arc it runs."""
    if blend_out is None:
        return segment_time(length - trunc_in, v_max, accel, v_in, v_out), 0.0
    straight = segment_time(length - trunc_in - blend_out.truncation, v_max, accel, v_in, v_out)
    arc = blend_out.arc_length
    return straight, arc / v_out if arc > 0.0 else 0.0


def solve_corners(lengths, vmaxes, accels, blends, entry_speed=0.0, entry_trunc=0.0):
    """Corner speeds of a chain of segments, and the blends they keep.

    Segment i of n runs from corner i to corner i + 1 with ``lengths[i]``,
    ``vmaxes[i]`` and ``accels[i]``.  ``blends[i]`` is the candidate blend at
    interior corner i, None for an exact stop (entries 0 and n are ignored).
    The chain is entered at the committed ``entry_speed`` with
    ``entry_trunc`` already cut from segment 0, and ends at rest.

    Forward and backward passes bound each corner speed by what its
    segments can reach and shed (Kunz & Stilman, "Time-Optimal Trajectory
    Generation for Path Following with Bounded Acceleration and Velocity",
    RSS 2012).  Blends then degrade to exact stops, round by round:

    * while the entry speed cannot be shed before corner 1, the newest
      blend: dropping those the committing plan had not seen restores it;
    * arcs forced to zero speed, and arcs slower than stopping there;
    * once, every arc of a run between zero-speed corners that loses to
      stopping at all its corners (coupled corners can pass each
      single-corner test yet lose together); a run entered at a nonzero
      committed speed is exempt.

    Round 1 does linear work.  A later round redoes only what the blends
    dropped before it changed: the effective lengths next to each dropped
    corner, the forward pass from the first of them for as long as it
    changes a speed past the last, the backward pass from the top of that
    change for as long as it changes a speed below the first, and the
    tests of the arcs within one corner of a changed speed or length (of
    every arc after a round that found the entry speed stuck, which tests
    none).  A round times each segment at most once, at its current
    boundary speeds, and re-tests an arc only when an input of its test
    changed since the arc last passed it: the effective lengths of its two
    segments, or the speeds at its corner and at both neighbours.  A
    segment's timing carries into the next round unless its effective
    length or a speed at either end changed.  The run fallback sweeps the
    arcs once across the zero-speed corners.

    Returns ``(speeds, blends, straight)``: n + 1 corner speeds, zero at
    every stop, the kept blends, None wherever the corner stops, and the n
    straight seconds of each segment between its truncations at those
    speeds, None for a segment no round timed at them.  The motion engine
    takes a motion's straight seconds from ``straight``.  No segment is
    timed here for the engine alone: that timing could raise
    ``InfeasibleBoundary`` on a chain the rounds solve without raising.
    """
    n = len(lengths)
    blends = list(blends)
    blends[0] = blends[n] = None
    trunc = [0.0 if b is None else b.truncation for b in blends]
    trunc[0] = entry_trunc
    eff = [lengths[i] - trunc[i] - trunc[i + 1] for i in range(n)]
    # the speeds each round leaves for the next, after the forward pass and
    # after both; round 1's passes rewrite every interior corner
    fwd = [entry_speed] + [0.0] * n
    speeds = fwd[:]
    # seconds of segment i from speeds[i] to speeds[i + 1], timed on first
    # use and kept while eff[i] and both its speeds stay what they were
    seg = [None] * n
    # inputs of each arc's last passed single-corner test; a failed test
    # drops the arc, so it is never asked again
    passed = [None] * n
    arcs = [i for i in range(1, n) if blends[i] is not None and blends[i].arc_length > 0.0]
    fallback_pending = True
    test_all = True  # in round 1, and after a round whose entry was stuck
    lo, hi = 1, n - 1  # the corners whose blends changed
    while True:
        top = n - 1  # the last corner the forward pass changes, or later
        for i in range(lo, n):  # forward reachability
            b = blends[i]
            v = 0.0 if b is None else b.v_blend
            if v > 0.0:
                cap = math.sqrt(fwd[i - 1] ** 2 + 2.0 * accels[i - 1] * eff[i - 1])
                if cap < v:
                    v = cap
            if i > hi and v == fwd[i]:
                top = i - 1
                break
            fwd[i] = v
        for i in range(top, 0, -1):  # backward deceleration
            v = fwd[i]
            if v > 0.0:
                cap = math.sqrt(speeds[i + 1] ** 2 + 2.0 * accels[i] * eff[i])
                if cap < v:
                    v = cap
            if v != speeds[i]:
                speeds[i] = v
                seg[i - 1] = seg[i] = None
            elif i < lo:
                break
        else:
            i = 0

        # the committed entry speed cannot be revised
        entry_stuck = entry_speed > 0.0 and n > 1 and (
            entry_speed**2 - speeds[1] ** 2 > 2.0 * accels[0] * eff[0] * (1.0 + 1e-12) + _FEAS_SLACK
        )
        # speeds changed only at corners i + 1 to top, and effective lengths
        # only between corners i and top + 1, so no other arc has new inputs
        drop = []
        for i in arcs if test_all else range(i, top + 2):
            b = blends[i]
            if b is None or not b.arc_length > 0.0:
                continue
            v = speeds[i]
            if v < _MIN_BLEND_SPEED:
                drop.append(i)
                continue
            if entry_stuck:
                continue
            e_in, e_out, v_in, v_out = eff[i - 1], eff[i], speeds[i - 1], speeds[i + 1]
            inputs = (e_in, e_out, v_in, v, v_out)
            if passed[i] == inputs:
                continue
            vmax_in, a_in, vmax_out, a_out = vmaxes[i - 1], accels[i - 1], vmaxes[i], accels[i]
            t_in = seg[i - 1]
            if t_in is None:
                t_in = seg[i - 1] = segment_time(e_in, vmax_in, a_in, v_in, v)
            t_out = seg[i]
            if t_out is None:
                t_out = seg[i] = segment_time(e_out, vmax_out, a_out, v, v_out)
            with_arc = t_in + b.arc_length / v + t_out
            try:
                with_stop = segment_time(
                    e_in + b.truncation, vmax_in, a_in, v_in, 0.0
                ) + segment_time(e_out + b.truncation, vmax_out, a_out, 0.0, v_out)
            except InfeasibleBoundary:
                # a neighbouring blend depends on carrying speed through
                # this corner; stopping here is not a local option
                with_stop = math.inf
            if with_arc > with_stop:
                drop.append(i)
            else:
                passed[i] = inputs
        if entry_stuck and not drop:
            drop = [i for i in range(n - 1, 0, -1) if blends[i] is not None][:1]
        elif arcs and not drop and fallback_pending:
            fallback_pending = False
            arcs = [i for i in arcs if blends[i] is not None]
            start = 0 if entry_speed == 0.0 else -1
            j = 0  # arcs[:j] lie before the current run's end
            for end in range(1, n + 1):
                if speeds[end] != 0.0:
                    continue
                first = j
                while j < len(arcs) and arcs[j] < end:
                    j += 1
                if start >= 0 and j > first:
                    for i in range(start, end):
                        if seg[i] is None:
                            seg[i] = segment_time(
                                eff[i], vmaxes[i], accels[i], speeds[i], speeds[i + 1]
                            )
                    run_arcs = arcs[first:j]
                    total = sum(seg[start:end]) + sum(
                        blends[i].arc_length / speeds[i] for i in run_arcs
                    )
                    stops = (
                        segment_time(lengths[i], vmaxes[i], accels[i], 0.0, 0.0)
                        for i in range(start, end)
                    )
                    if total > sum(stops):
                        drop += run_arcs
                start = end
        if not drop:
            return speeds, blends, seg
        for i in drop:
            blends[i] = None
            trunc[i] = 0.0
            for j in (i - 1, i):
                e = lengths[j] - trunc[j] - trunc[j + 1]
                if e != eff[j]:
                    eff[j] = e
                    seg[j] = None
        lo, hi = drop[0], drop[-1]
        test_all = entry_stuck
