"""Skill-based robot motion control: wire protocol, planning, and timing.

The package models the full chain from a manufacturing process description
down to the cyclic process images exchanged between a PLC and a robot
controller: motion records and frames (``wire``), trapezoidal timing and
corner blending (``trajectory``), the four-step motion planner
(``planner``), the PLC trigger and robot executor state machines
(``plc_trigger``, ``robot_executor``), a deterministic co-simulation
(``fieldbus_sim``), and the execution-type benchmark (``bench``).
"""

from .core import (
    ContinuousSkillPlan,
    DegenerateSegment,
    ExecutionType,
    JointTarget,
    MotionCommand,
    MotionType,
    PathLabel,
    Pose,
    corner_angle,
    pose_distance,
)
from .trajectory import (
    BlendGeometry,
    GroupProfile,
    InfeasibleBoundary,
    ReversalAngle,
    SegmentSpec,
    blend_geometry,
    plan_group_profile,
    ptp_time,
    segment_time,
)
from .wire import (
    CommandFrame,
    CommandWord,
    DecodeError,
    EncodeError,
    FeedbackFrame,
    MotionRecord,
    RobotState,
    WireError,
    decode_command_frame,
    decode_feedback_frame,
    decode_record,
    encode_command_frame,
    encode_feedback_frame,
    encode_record,
    explode_motion,
    explode_plan,
    slot_for_record,
)
from .planner import (
    EmptyProcess,
    PlanningConfig,
    ProcessStep,
    StepKind,
    UnreachableClearance,
    UnresolvedPose,
    add_pre_post_movements,
    coalesce_continuous,
    label_process,
    parse_plans,
    parse_process,
    plan,
    plan_primary_motions,
    plan_secondary_motions,
    plan_waypoints,
    serialize_plans,
    serialize_process,
)
from .plc_trigger import (
    BusySkill,
    ContinuousMotionProgram,
    FeedbackRegression,
    NativeTriggerProgram,
    NotRunning,
    PlanTooLarge,
    PlcSkillInstance,
    PlcSkillState,
    ProtocolError,
    RobotError,
    SingleMotionProgram,
)
from .robot_executor import (
    ERROR_RECORD,
    ERROR_STARVATION,
    NativeExecutor,
    RobotExecutor,
)
from .fieldbus_sim import SimConfig, SimResult, SimTimeout, SimTrace, rep_seed
from .bench import (
    SETUP_A,
    SETUP_B,
    MeasurementReport,
    ScenarioConfig,
    build_plans,
    build_scenario,
    compute_improvement,
    mad,
    parse_scenario,
    raw_csv,
    render_table,
    run_benchmark,
    serialize_scenario,
    summary_csv,
)

__version__ = "0.1.0"
