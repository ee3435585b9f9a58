"""The corner-speed solver as it was before each round did linear work,
kept unedited as the oracle for ``trajectory.solve_corners``: the linear
solver must return the same speeds and the same blend objects, or raise
the same exception, on every input.  Never edit the function below."""

import math

from skillbench.trajectory import _FEAS_SLACK, _MIN_BLEND_SPEED, InfeasibleBoundary
# the closed form, under the name the function below was written against
from skillbench.trajectory import segment_time as _segment_time


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

    Returns ``(speeds, blends)``: n + 1 corner speeds, zero at every stop,
    and the kept blends, None wherever the corner stops.
    """
    n = len(lengths)
    blends = list(blends)
    blends[0] = blends[n] = None
    fallback_pending = True
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
        drop = []
        for i in arcs:
            b, v = blends[i], speeds[i]
            if v < _MIN_BLEND_SPEED:
                drop.append(i)
                continue
            if entry_stuck:
                continue
            with_arc = (
                _segment_time(eff[i - 1], vmaxes[i - 1], accels[i - 1], speeds[i - 1], v)
                + b.arc_length / v
                + _segment_time(eff[i], vmaxes[i], accels[i], v, speeds[i + 1])
            )
            try:
                with_stop = _segment_time(
                    eff[i - 1] + b.truncation, vmaxes[i - 1], accels[i - 1], speeds[i - 1], 0.0
                ) + _segment_time(eff[i] + b.truncation, vmaxes[i], accels[i], 0.0, speeds[i + 1])
            except InfeasibleBoundary:
                # a neighbouring blend depends on carrying speed through
                # this corner; stopping here is not a local option
                continue
            if with_arc > with_stop:
                drop.append(i)
        if entry_stuck and not drop:
            drop = [i for i in range(n - 1, 0, -1) if blends[i] is not None][:1]
        elif arcs and not drop and fallback_pending:
            fallback_pending = False
            start = 0 if entry_speed == 0.0 else -1
            for end in (i for i in range(1, n + 1) if speeds[i] == 0.0):
                run_arcs = [i for i in arcs if start < i < end]
                if start >= 0 and run_arcs:
                    run = range(start, end)
                    total = sum(
                        _segment_time(eff[i], vmaxes[i], accels[i], speeds[i], speeds[i + 1])
                        for i in run
                    ) + sum(blends[i].arc_length / speeds[i] for i in run_arcs)
                    stops = (_segment_time(lengths[i], vmaxes[i], accels[i], 0.0, 0.0) for i in run)
                    if total > sum(stops):
                        drop += run_arcs
                start = end
        if not drop:
            return speeds, blends
        for i in drop:
            blends[i] = None
