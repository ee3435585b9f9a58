"""Process-to-motion planning in four steps.

A robot task arrives as a sequence of process steps: primary paths that the
process itself prescribes (e.g. the descent into a load carrier), standstill
actions (gripper open/close), and free transits.  Planning turns this into
continuous skill groups:

  I    label every step with its required path fidelity,
  II   convert primary paths to LIN motions (exact waypoints),
  III  extend primaries with collinear pre/post movements where they meet a
       standstill, then plan transits as PTP motions (with an intermediate
       waypoint at clearance height when requested),
  IV   coalesce everything between standstills into continuous groups.

Group boundaries are exactly the standstill actions; inside a group the
robot never has to stop unless a corner degrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .core import ContinuousSkillPlan, MotionCommand, MotionType, PathLabel, Pose

_CHAIN_TOL = 1e-9
_LIN, _PTP = MotionType.LIN_CARTESIAN, MotionType.PTP_CARTESIAN


class EmptyProcess(ValueError):
    pass


class UnresolvedPose(ValueError):
    pass


class UnreachableClearance(ValueError):
    """Clearance height below both transit endpoints."""


class StepKind(Enum):
    PRIMARY_PATH = "primary"
    STANDSTILL_ACTION = "standstill"
    TRANSIT = "transit"


@dataclass(frozen=True)
class ProcessStep:
    """One step of a manufacturing process description.

    PRIMARY_PATH: entry/exit poses of a path the process prescribes.
    STANDSTILL_ACTION: an action performed at rest at ``pose``.
    TRANSIT: get to the next step's start (or ``to_pose`` if given), path
    shape free; ``clearance`` optionally forces a fly-over height in mm.
    """

    kind: StepKind
    entry: Pose | None = None
    exit: Pose | None = None
    pose: Pose | None = None
    action: str | None = None
    to_pose: Pose | None = None
    clearance: float | None = None
    label: PathLabel | None = None

    def __post_init__(self):
        if self.kind is StepKind.STANDSTILL_ACTION:
            if self.pose is None or self.action is None:
                raise ValueError("standstill steps need a pose and an action")
            if self.label not in (None, PathLabel.ACCURATE_STOP):
                raise ValueError("standstill actions are always accurate stops")
        elif self.kind is StepKind.PRIMARY_PATH:
            if self.pose is not None or self.action is not None:
                raise ValueError("primary steps carry entry/exit, not pose/action")
        elif self.kind is StepKind.TRANSIT:
            if self.entry is not None or self.exit is not None:
                raise ValueError("transit steps carry no entry/exit poses")
            if self.clearance is not None and not (
                self.clearance > 0.0 and math.isfinite(self.clearance)
            ):
                raise ValueError("clearance must be a positive height")


@dataclass(frozen=True)
class PlanningConfig:
    """Dynamics and insertion parameters used by the planner.

    The planner emits LIN motions (primary paths, pre and post moves) and
    PTP_CARTESIAN transits, all in tool and base frame 0 and none in joint
    space.  ``default_approx`` is the approx distance of blending motions;
    ``pre_post_length`` is the length of every pre and post move.
    """

    lin_velocity: float = 250.0
    lin_acceleration: float = 2000.0
    ptp_velocity: float = 250.0
    ptp_acceleration: float = 2000.0
    default_approx: float = 10.0
    pre_post_length: float = 50.0

    def __post_init__(self):
        for name in (
            "lin_velocity",
            "lin_acceleration",
            "ptp_velocity",
            "ptp_acceleration",
            "pre_post_length",
        ):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be > 0, got {v!r}")
        if not (self.default_approx >= 0.0 and math.isfinite(self.default_approx)):
            raise ValueError("default_approx must be >= 0")


@dataclass(frozen=True)
class PlannedMotion:
    """A motion with its resolved start pose and planning provenance."""

    command: MotionCommand
    start: Pose
    origin: str  # primary | pre | post | transit
    label: PathLabel


@dataclass(frozen=True)
class StandstillItem:
    pose: Pose
    action: str


_DEFAULT_LABELS = {
    StepKind.PRIMARY_PATH: PathLabel.ACCURATE_PATH,
    StepKind.STANDSTILL_ACTION: PathLabel.ACCURATE_STOP,
    StepKind.TRANSIT: PathLabel.BLENDING,
}


def label_process(steps) -> tuple[ProcessStep, ...]:
    """Step I: assign default path fidelity labels where none was given."""
    steps = tuple(steps)
    if not steps:
        raise EmptyProcess("a process needs at least one step")
    for s in steps:
        if not isinstance(s, ProcessStep):
            raise TypeError(
                f"expected ProcessStep, got {type(s).__name__}"
                " (already-planned output is not re-plannable)"
            )
    return tuple(
        s if s.label is not None else replace(s, label=_DEFAULT_LABELS[s.kind])
        for s in steps
    )


def _planned(mtype, target, start, origin, label, cfg: PlanningConfig) -> PlannedMotion:
    """The one rule of every planned motion: a LIN motion takes the lin
    dynamics and a PTP_CARTESIAN one the ptp dynamics, and the approx is
    the default approx exactly when the label is BLENDING."""
    lin = mtype is _LIN
    cmd = MotionCommand(
        motion_type=mtype,
        target=target,
        velocity=cfg.lin_velocity if lin else cfg.ptp_velocity,
        acceleration=cfg.lin_acceleration if lin else cfg.ptp_acceleration,
        approx_distance=cfg.default_approx if label is PathLabel.BLENDING else 0.0,
    )
    return PlannedMotion(cmd, start, origin, label)


def plan_primary_motions(steps, cfg: PlanningConfig) -> list:
    """Step II: every PRIMARY_PATH becomes one LIN motion at its exit pose."""
    items: list = []
    for s in steps:
        if s.label is None:
            raise ValueError("steps must be labeled first (label_process)")
        if s.kind is StepKind.PRIMARY_PATH:
            if s.entry is None or s.exit is None:
                raise UnresolvedPose("primary path without resolved entry/exit poses")
            if math.dist(s.entry.position, s.exit.position) == 0.0:
                raise ValueError("primary path with coinciding entry and exit")
            items.append(_planned(_LIN, s.exit, s.entry, "primary", s.label, cfg))
        elif s.kind is StepKind.STANDSTILL_ACTION:
            items.append(StandstillItem(s.pose, s.action))
        else:
            items.append(s)  # transit, resolved in step III
    return items


def _offset(pose: Pose, ref_from: Pose, ref_to: Pose, dist: float) -> Pose:
    """``pose`` moved ``dist`` along the direction from ``ref_from`` to
    ``ref_to``; a negative ``dist`` moves it against that direction."""
    dx = ref_to.x - ref_from.x
    dy = ref_to.y - ref_from.y
    dz = ref_to.z - ref_from.z
    frac = dist / math.sqrt(dx * dx + dy * dy + dz * dz)
    return Pose(pose.x + dx * frac, pose.y + dy * frac, pose.z + dz * frac, pose.a, pose.b, pose.c)


def add_pre_post_movements(items, cfg: PlanningConfig) -> list:
    """Step III a: collinear approach/retreat moves around standstills.

    A primary motion that ends in a standstill gets a pre movement (approach
    along its own direction); one that leaves a standstill gets a post
    movement (continuation of its direction).  Both are
    ``cfg.pre_post_length`` long.  The junction with the primary
    is an exact waypoint but collinear, so the robot passes through at speed:
    a pre move is ACCURATE_PATH.  A post move is BLENDING, so its outer end
    blends with the default approx distance.
    """
    out: list = []
    for idx, item in enumerate(items):
        if not (isinstance(item, PlannedMotion) and item.origin == "primary"):
            out.append(item)
            continue
        entry, target = item.start, item.command.target
        prev_standstill = idx > 0 and isinstance(items[idx - 1], StandstillItem)
        next_standstill = idx + 1 < len(items) and isinstance(
            items[idx + 1], StandstillItem
        )
        if next_standstill:  # approach: start pre_post_length before the entry
            pre_start = _offset(entry, entry, target, -cfg.pre_post_length)
            out.append(_planned(_LIN, entry, pre_start, "pre", PathLabel.ACCURATE_PATH, cfg))
        out.append(item)
        if prev_standstill:  # retreat: continue pre_post_length past the exit
            post_end = _offset(target, entry, target, cfg.pre_post_length)
            out.append(_planned(_LIN, post_end, target, "post", PathLabel.BLENDING, cfg))
    return out


def _item_start(item) -> Pose | None:
    if isinstance(item, PlannedMotion):
        return item.start
    if isinstance(item, StandstillItem):
        return item.pose
    return None


def plan_secondary_motions(items, cfg: PlanningConfig) -> list:
    """Step III b: transits become PTP motions between the resolved chain.

    A transit runs from the current pose to the next item's start pose (or
    its explicit ``to_pose``).  When a clearance height is specified, an
    intermediate waypoint at that height is inserted over the horizontal
    midpoint, yielding two PTP motions; a clearance below both endpoints is
    rejected.  Zero-length transits vanish, and an unlabeled transit is
    BLENDING.  Every other item must start where the one before it left
    the robot, or the process is discontinuous.
    """
    out: list = []
    current: Pose | None = None
    for idx, item in enumerate(items):
        if isinstance(item, ProcessStep) and item.kind is StepKind.TRANSIT:
            if current is None:
                raise UnresolvedPose("transit with unknown start pose")
            dest = item.to_pose
            if dest is None:
                for nxt in items[idx + 1 :]:
                    start = _item_start(nxt)
                    if start is not None:
                        dest = start
                        break
            if dest is None:
                raise UnresolvedPose("transit with no destination")
            if math.dist(current.position, dest.position) <= _CHAIN_TOL:
                continue
            label = item.label or PathLabel.BLENDING
            legs: list[Pose] = [dest]
            if item.clearance is not None:
                c = item.clearance
                if c <= current.z and c <= dest.z:
                    raise UnreachableClearance(
                        f"clearance {c} below both endpoints ({current.z}, {dest.z})"
                    )
                mid = Pose(
                    0.5 * (current.x + dest.x),
                    0.5 * (current.y + dest.y),
                    c,
                    dest.a,
                    dest.b,
                    dest.c,
                )
                legs = [mid, dest]
            leg_start = current
            for leg_target in legs:
                out.append(_planned(_PTP, leg_target, leg_start, "transit", label, cfg))
                leg_start = leg_target
            current = dest
            continue
        # a standstill or a planned motion
        start = _item_start(item)
        if current is not None and math.dist(current.position, start.position) > _CHAIN_TOL:
            raise ValueError(
                f"process discontinuity: next item starts at {start.position}, "
                f"robot at {current.position}"
            )
        current = item.command.target if isinstance(item, PlannedMotion) else start
        out.append(item)
    return out


def _finalize_group(motions: list[MotionCommand], action: str | None) -> ContinuousSkillPlan:
    last = motions[-1]
    if last.approx_distance != 0.0:
        motions[-1] = replace(last, approx_distance=0.0)
    return ContinuousSkillPlan(tuple(motions), terminal_action=action)


def coalesce_continuous(items) -> list[ContinuousSkillPlan]:
    """Step IV: split the motion chain into groups at standstills.

    Each group's final motion ends exactly on target.  A standstill that
    follows another standstill directly (no motion in between) attaches its
    action to the previous group; a leading standstill only marks the start
    pose.
    """
    plans: list[ContinuousSkillPlan] = []
    pending: list[MotionCommand] = []

    def emit(action: str | None):
        nonlocal pending
        if pending:
            plans.append(_finalize_group(pending, action))
            pending = []
        elif action is not None and plans:
            prev = plans[-1]
            joined = action if prev.terminal_action is None else f"{prev.terminal_action}+{action}"
            plans[-1] = ContinuousSkillPlan(prev.motions, terminal_action=joined)

    for item in items:
        if isinstance(item, StandstillItem):
            emit(item.action)
        elif isinstance(item, PlannedMotion):
            pending.append(item.command)
            if item.label is PathLabel.ACCURATE_STOP:
                emit(None)
        else:
            raise TypeError(f"unexpected item {type(item).__name__} (transit not planned?)")
    emit(None)
    return plans


def plan(process, cfg: PlanningConfig) -> list[ContinuousSkillPlan]:
    """Run the full pipeline on a process description."""
    labeled = label_process(process)
    items = plan_primary_motions(labeled, cfg)
    items = add_pre_post_movements(items, cfg)
    items = plan_secondary_motions(items, cfg)
    return coalesce_continuous(items)

