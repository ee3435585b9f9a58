"""Shared domain types for skill-based motion control.

Poses are Cartesian TCP coordinates in mm plus a Z-Y'-X'' Euler orientation
in degrees.  Orientation components are normalized into [-180, 180) at
construction so that equal orientations compare equal.  No kinematics happen
anywhere in this package: joint targets and Cartesian poses are carried, not
converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum


def _normalize_deg(v: float) -> float:
    # maps into [-180, 180); 180 wraps to -180.  Float % can round a tiny
    # negative remainder up to the divisor itself, so clamp that wrap too.
    r = ((v + 180.0) % 360.0) - 180.0
    return -180.0 if r >= 180.0 else r


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Pose:
    """Cartesian pose: position in mm, orientation as Z-Y'-X'' Euler degrees."""

    x: float
    y: float
    z: float
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        _require_finite("pose component", self.x, self.y, self.z, self.a, self.b, self.c)
        object.__setattr__(self, "a", _normalize_deg(float(self.a)))
        object.__setattr__(self, "b", _normalize_deg(float(self.b)))
        object.__setattr__(self, "c", _normalize_deg(float(self.c)))
        # -0.0 == 0.0 but packs to other bytes, so equal poses drop the sign
        # of a zero (the angles above cannot produce one)
        object.__setattr__(self, "x", float(self.x) + 0.0)
        object.__setattr__(self, "y", float(self.y) + 0.0)
        object.__setattr__(self, "z", float(self.z) + 0.0)

    @property
    def position(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def components(self) -> tuple[float, float, float, float, float, float]:
        return (self.x, self.y, self.z, self.a, self.b, self.c)


@dataclass(frozen=True)
class JointTarget:
    """Axis target in degrees; axes beyond the robot's axis count stay zero."""

    j1: float = 0.0
    j2: float = 0.0
    j3: float = 0.0
    j4: float = 0.0
    j5: float = 0.0
    j6: float = 0.0

    def __post_init__(self):
        _require_finite("joint angle", *self.components())

    def components(self) -> tuple[float, float, float, float, float, float]:
        return (self.j1, self.j2, self.j3, self.j4, self.j5, self.j6)


class MotionType(IntEnum):
    """Motion primitives; values are the wire codes."""

    LIN_CARTESIAN = 1
    PTP_CARTESIAN = 2
    PTP_JOINT = 3
    CIRCULAR = 4
    SPLINE = 5
    LIN_FORCE = 6


class PathLabel(Enum):
    """Required path fidelity of a process step."""

    BLENDING = "blending"
    ACCURATE_PATH = "accurate_path"
    ACCURATE_STOP = "accurate_stop"


class ExecutionType(Enum):
    """How a motion sequence reaches the robot controller."""

    RC = "rc"  # native robot program, triggered once
    SM = "sm"  # one skill per motion, full handshake each
    CM = "cm"  # one skill per continuous group, FIFO streamed


@dataclass(frozen=True)
class MotionCommand:
    """One logical motion: type, target, dynamics and blending radius.

    ``approx_distance`` is the approximation radius around the *destination*
    of this motion (0 = exact waypoint).  ``aux_point`` is the intermediate
    position of a circular path and exists only for CIRCULAR.
    ``force_setpoint`` is in deci-newtons and only meaningful for LIN_FORCE.
    """

    motion_type: MotionType
    target: Pose | JointTarget
    velocity: float
    acceleration: float
    approx_distance: float = 0.0
    aux_point: tuple[float, float, float] | None = None
    tool_frame: int = 0
    base_frame: int = 0
    force_setpoint: int = 0

    def __post_init__(self):
        if not isinstance(self.motion_type, MotionType):
            object.__setattr__(self, "motion_type", MotionType(self.motion_type))
        wants_joint = self.motion_type is MotionType.PTP_JOINT
        if wants_joint != isinstance(self.target, JointTarget):
            raise ValueError(
                f"{self.motion_type.name} requires "
                f"{'a JointTarget' if wants_joint else 'a Pose'} target"
            )
        if (self.aux_point is not None) != (self.motion_type is MotionType.CIRCULAR):
            raise ValueError("aux_point is present iff motion_type is CIRCULAR")
        if self.aux_point is not None:
            ax, ay, az = self.aux_point
            _require_finite("aux point", ax, ay, az)
            object.__setattr__(self, "aux_point", (float(ax), float(ay), float(az)))
        if not (self.velocity > 0.0 and math.isfinite(self.velocity)):
            raise ValueError(f"velocity must be > 0, got {self.velocity!r}")
        if not (self.acceleration > 0.0 and math.isfinite(self.acceleration)):
            raise ValueError(f"acceleration must be > 0, got {self.acceleration!r}")
        if not (self.approx_distance >= 0.0 and math.isfinite(self.approx_distance)):
            raise ValueError(f"approx_distance must be >= 0, got {self.approx_distance!r}")
        for name, frame in (("tool_frame", self.tool_frame), ("base_frame", self.base_frame)):
            if not (isinstance(frame, int) and 0 <= frame <= 255):
                raise ValueError(f"{name} must be an int in 0..255, got {frame!r}")
        if not (isinstance(self.force_setpoint, int) and self.force_setpoint >= 0):
            raise ValueError("force_setpoint must be a non-negative int")
        if self.force_setpoint and self.motion_type is not MotionType.LIN_FORCE:
            raise ValueError("force_setpoint is only allowed for LIN_FORCE")

    @property
    def record_count(self) -> int:
        """Wire records this motion expands to (CIRCULAR needs two)."""
        return 2 if self.motion_type is MotionType.CIRCULAR else 1


@dataclass(frozen=True)
class ContinuousSkillPlan:
    """A group of motions executed as one uninterrupted skill.

    The last motion always ends exactly on its target (approx 0); the
    optional ``terminal_action`` is the standstill action (e.g. gripper
    close) that ends the group.
    """

    motions: tuple[MotionCommand, ...]
    terminal_action: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "motions", tuple(self.motions))
        if not self.motions:
            raise ValueError("a skill plan needs at least one motion")
        if self.motions[-1].approx_distance != 0.0:
            raise ValueError("the final motion of a group must have approx_distance 0")

    @property
    def record_count(self) -> int:
        return sum(m.record_count for m in self.motions)


def turn_angle(p, c, n) -> float:
    """Turn angle in radians at point ``c`` of the path ``p`` -> ``c`` ->
    ``n`` (xyz sequences): 0 = collinear, pi = full reversal.  Uses atan2 of
    the cross/dot pair, which stays well conditioned near both 0 and pi."""
    ux, uy, uz = c[0] - p[0], c[1] - p[1], c[2] - p[2]
    vx, vy, vz = n[0] - c[0], n[1] - c[1], n[2] - c[2]
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    cross = math.sqrt(cx * cx + cy * cy + cz * cz)
    dot = ux * vx + uy * vy + uz * vz
    return math.atan2(cross, dot)

