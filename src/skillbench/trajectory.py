"""Trapezoidal velocity profiles and circular corner blending.

The timing model is piecewise constant acceleration: every path segment is
traversed with a trapezoidal (or triangular, if the cruise speed is never
reached) velocity profile between given boundary speeds.  Corners inside a
continuous group are either exact stops (v=0), collinear pass-throughs, or
circular arc blends tangent to both segments at ``approx_distance`` from the
corner, traversed at constant speed.

One timing model, one function per decision: ``corner_blend`` proposes the
blend of one corner (or an exact stop), ``solve_corners`` fixes the corner
speeds of a chain and which blends survive, and ``motion_time`` gives one
motion's straight and arc seconds, each from the closed form
``segment_time``.  The robot executor's motion engine makes these calls,
so the timing the benchmark reports is this model's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    dominant = max(abs(float(d)) for d in joint_deltas)
    return segment_time(dominant, v_max, accel, 0.0, 0.0)


@dataclass(frozen=True)
class BlendGeometry:
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


def _arc(angle, approx_distance, v1, v2, accel) -> BlendGeometry:
    """``blend_geometry`` for arguments it would accept, unchecked.  The
    minima are comparisons that keep the builtin ``min``'s choice, the
    first of equal values."""
    slower = v2 if v2 < v1 else v1
    if angle <= COLLINEAR_EPS:
        # straight continuation: no arc, no truncation, carry the slower speed
        return _blend(angle=0.0, radius=math.inf, arc_length=0.0, v_blend=slower, truncation=0.0)
    if approx_distance == 0.0:
        return _blend(angle=angle, radius=0.0, arc_length=0.0, v_blend=0.0, truncation=0.0)
    radius = approx_distance / math.tan(0.5 * angle)
    cap = math.sqrt(accel * radius)
    return _blend(
        angle=angle,
        radius=radius,
        arc_length=radius * angle,
        v_blend=cap if cap < slower else slower,
        truncation=approx_distance,
    )


def _blend(**fields) -> BlendGeometry:
    """A ``BlendGeometry`` built as the wire decoders build their records:
    the frozen ``__init__`` would pay one ``object.__setattr__`` per field,
    and the class has no ``__post_init__`` to skip."""
    geom = object.__new__(BlendGeometry)
    geom.__dict__.update(fields)
    return geom


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
    if math.dist(prev_pt, corner) == 0.0 or math.dist(corner, next_pt) == 0.0:
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

    Each round does linear work.  It times each segment at most once, at
    its current boundary speeds, and re-tests an arc only when an input of
    its test changed since the arc last passed it: the effective lengths of
    its two segments, or the speeds at its corner and at both neighbours.
    The run fallback sweeps the arcs once across the zero-speed corners.

    Returns ``(speeds, blends)``: n + 1 corner speeds, zero at every stop,
    and the kept blends, None wherever the corner stops.
    """
    n = len(lengths)
    blends = list(blends)
    blends[0] = blends[n] = None
    fallback_pending = True
    # inputs of each arc's last passed single-corner test; a failed test
    # drops the arc, so it is never asked again
    passed = [None] * n
    while True:
        trunc = [0.0 if b is None else b.truncation for b in blends]
        trunc[0] = entry_trunc
        eff = [lengths[i] - trunc[i] - trunc[i + 1] for i in range(n)]
        speeds = [0.0 if b is None else b.v_blend for b in blends]
        speeds[0] = entry_speed
        for i in range(1, n):  # forward reachability
            if speeds[i] > 0.0:
                cap = math.sqrt(speeds[i - 1] ** 2 + 2.0 * accels[i - 1] * eff[i - 1])
                if cap < speeds[i]:
                    speeds[i] = cap
        for i in range(n - 1, 0, -1):  # backward deceleration
            if speeds[i] > 0.0:
                cap = math.sqrt(speeds[i + 1] ** 2 + 2.0 * accels[i] * eff[i])
                if cap < speeds[i]:
                    speeds[i] = cap

        # the committed entry speed cannot be revised
        entry_stuck = entry_speed > 0.0 and n > 1 and (
            entry_speed**2 - speeds[1] ** 2 > 2.0 * accels[0] * eff[0] * (1.0 + 1e-12) + _FEAS_SLACK
        )
        arcs = [i for i in range(1, n) if blends[i] is not None and blends[i].arc_length > 0.0]
        # seconds of segment i from speeds[i] to speeds[i + 1], timed on first use
        seg = [None] * n
        drop = []
        for i in arcs:
            b, v = blends[i], speeds[i]
            if v < _MIN_BLEND_SPEED:
                drop.append(i)
                continue
            if entry_stuck:
                continue
            inputs = (eff[i - 1], eff[i], speeds[i - 1], v, speeds[i + 1])
            if passed[i] == inputs:
                continue
            t_in = seg[i - 1]
            if t_in is None:
                t_in = seg[i - 1] = segment_time(
                    eff[i - 1], vmaxes[i - 1], accels[i - 1], speeds[i - 1], v
                )
            # arcs come in order, so no earlier arc has timed segment i
            t_out = seg[i] = segment_time(eff[i], vmaxes[i], accels[i], v, speeds[i + 1])
            with_arc = t_in + b.arc_length / v + t_out
            try:
                with_stop = segment_time(
                    eff[i - 1] + b.truncation, vmaxes[i - 1], accels[i - 1], speeds[i - 1], 0.0
                ) + segment_time(eff[i] + b.truncation, vmaxes[i], accels[i], 0.0, speeds[i + 1])
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
            return speeds, blends
        for i in drop:
            blends[i] = None
