"""Domain types: poses, motion commands, group plans, corner geometry."""

import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from skillbench.core import (
    ContinuousSkillPlan,
    JointTarget,
    MotionCommand,
    MotionType,
    PathLabel,
    Pose,
    turn_angle,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestPose:
    def test_orientation_normalized_at_construction(self):
        p = Pose(1.0, 2.0, 3.0, 270.0, -190.0, 540.0)
        assert (p.a, p.b, p.c) == (-90.0, 170.0, -180.0)
        assert p.position == (1.0, 2.0, 3.0)

    def test_wrap_at_exactly_180(self):
        assert Pose(0, 0, 0, 180.0).a == -180.0
        assert Pose(0, 0, 0, -180.0).a == -180.0

    def test_equal_orientations_compare_equal(self):
        assert Pose(0, 0, 0, 190.0) == Pose(0, 0, 0, -170.0)
        assert Pose(0, 0, 0, 0.0) == Pose(0, 0, 0, 360.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose(math.nan, 0, 0)
        with pytest.raises(ValueError):
            Pose(0, 0, 0, math.inf)

    def test_components_order(self):
        assert Pose(1, 2, 3, 4, 5, 6).components() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    @given(finite, finite, finite)
    def test_orientation_always_in_half_open_range(self, a, b, c):
        p = Pose(0.0, 0.0, 0.0, a, b, c)
        for v in (p.a, p.b, p.c):
            assert -180.0 <= v < 180.0

    @given(st.floats(-180.0, 179.999999, allow_nan=False))
    def test_normalization_is_idempotent(self, a):
        p = Pose(0, 0, 0, a)
        assert Pose(0, 0, 0, p.a).a == p.a


class TestJointTarget:
    def test_defaults_to_zero_axes(self):
        assert JointTarget(j1=10.0).components() == (10.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            JointTarget(j3=math.nan)


class TestMotionCommand:
    def test_joint_type_requires_joint_target(self):
        with pytest.raises(ValueError):
            MotionCommand(MotionType.PTP_JOINT, Pose(0, 0, 0), 100.0, 1000.0)
        with pytest.raises(ValueError):
            MotionCommand(MotionType.LIN_CARTESIAN, JointTarget(), 100.0, 1000.0)

    def test_aux_point_only_for_circular(self):
        with pytest.raises(ValueError):
            MotionCommand(
                MotionType.LIN_CARTESIAN, Pose(0, 0, 0), 100.0, 1000.0,
                aux_point=(1.0, 2.0, 3.0),
            )
        with pytest.raises(ValueError):
            MotionCommand(MotionType.CIRCULAR, Pose(0, 0, 0), 100.0, 1000.0)

    def test_circular_counts_two_records(self):
        arc = MotionCommand(
            MotionType.CIRCULAR, Pose(10, 0, 0), 100.0, 1000.0, aux_point=(5.0, 5.0, 0.0)
        )
        assert arc.record_count == 2
        lin = MotionCommand(MotionType.LIN_CARTESIAN, Pose(10, 0, 0), 100.0, 1000.0)
        assert lin.record_count == 1

    def test_rejects_bad_dynamics(self):
        for kw in ({"velocity": 0.0}, {"velocity": -1.0}, {"velocity": math.inf},
                   {"acceleration": 0.0}, {"approx_distance": -1.0}):
            args = {"velocity": 100.0, "acceleration": 1000.0} | kw
            with pytest.raises(ValueError):
                MotionCommand(MotionType.LIN_CARTESIAN, Pose(0, 0, 0), **args)

    def test_frame_ids_are_bytes(self):
        with pytest.raises(ValueError):
            MotionCommand(
                MotionType.LIN_CARTESIAN, Pose(0, 0, 0), 100.0, 1000.0, tool_frame=256
            )
        with pytest.raises(ValueError):
            MotionCommand(
                MotionType.LIN_CARTESIAN, Pose(0, 0, 0), 100.0, 1000.0, base_frame=-1
            )

    def test_force_setpoint_only_for_force_motion(self):
        with pytest.raises(ValueError):
            MotionCommand(
                MotionType.LIN_CARTESIAN, Pose(0, 0, 0), 100.0, 1000.0, force_setpoint=50
            )
        m = MotionCommand(
            MotionType.LIN_FORCE, Pose(0, 0, 0), 100.0, 1000.0, force_setpoint=50
        )
        assert m.force_setpoint == 50

    def test_int_motion_type_is_coerced(self):
        m = MotionCommand(2, Pose(0, 0, 0), 100.0, 1000.0)
        assert m.motion_type is MotionType.PTP_CARTESIAN


class TestContinuousSkillPlan:
    def _lin(self, approx=0.0):
        return MotionCommand(
            MotionType.LIN_CARTESIAN, Pose(10, 0, 0), 100.0, 1000.0,
            approx_distance=approx,
        )

    def test_needs_at_least_one_motion(self):
        with pytest.raises(ValueError):
            ContinuousSkillPlan(())

    def test_final_motion_must_stop_exactly(self):
        with pytest.raises(ValueError):
            ContinuousSkillPlan((self._lin(approx=5.0),))
        plan = ContinuousSkillPlan((self._lin(approx=5.0), self._lin()))
        assert plan.motions[-1].approx_distance == 0.0

    def test_record_count_sums_motions(self):
        arc = MotionCommand(
            MotionType.CIRCULAR, Pose(10, 0, 0), 100.0, 1000.0, aux_point=(5.0, 5.0, 0.0)
        )
        plan = ContinuousSkillPlan((self._lin(approx=2.0), arc, self._lin()))
        assert plan.record_count == 4

    def test_terminal_action_carried(self):
        plan = ContinuousSkillPlan((self._lin(),), terminal_action="grip")
        assert plan.terminal_action == "grip"


class TestGeometry:
    def test_turn_angle_basics(self):
        o = (0, 0, 0)
        assert turn_angle(o, (1, 0, 0), (2, 0, 0)) == 0.0
        assert turn_angle(o, (1, 0, 0), (1, 1, 0)) == pytest.approx(math.pi / 2, abs=1e-15)
        assert turn_angle(o, (1, 0, 0), (0, 0, 0)) == pytest.approx(math.pi, abs=1e-15)

    @given(
        st.tuples(*[st.floats(-100, 100) for _ in range(9)]),
    )
    def test_turn_angle_range(self, coords):
        angle = turn_angle(coords[0:3], coords[3:6], coords[6:9])
        assert 0.0 <= angle <= math.pi

    def test_turn_angle_well_conditioned_near_collinear(self):
        # a 1e-8 rad kink must not vanish into rounding
        kink = 1e-8
        angle = turn_angle((0, 0, 0), (100, 0, 0), (200, 100 * math.tan(kink), 0))
        assert angle == pytest.approx(kink, rel=1e-6)


def test_enums_cover_wire_codes():
    assert [t.value for t in MotionType] == [1, 2, 3, 4, 5, 6]
    assert {l.value for l in PathLabel} == {"blending", "accurate_path", "accurate_stop"}
