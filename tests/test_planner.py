"""Planning pipeline: labels, primary/pre/post motions, transits, grouping."""

import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from skillbench.bench import SETUP_A, SETUP_B, build_scenario
from skillbench.core import (
    MotionCommand,
    MotionType,
    PathLabel,
    Pose,
    turn_angle,
)
from skillbench.planner import (
    EmptyProcess,
    PlannedMotion,
    PlanningConfig,
    ProcessStep,
    StandstillItem,
    StepKind,
    UnreachableClearance,
    UnresolvedPose,
    add_pre_post_movements,
    coalesce_continuous,
    label_process,
    plan,
    plan_primary_motions,
    plan_secondary_motions,
)

CFG = PlanningConfig()

P0 = Pose(0.0, 0.0, 0.0)
PICK_TOP = Pose(100.0, 0.0, 80.0)
PICK = Pose(100.0, 0.0, 30.0)
PLACE_TOP = Pose(300.0, 200.0, 80.0)
PLACE = Pose(300.0, 200.0, 30.0)


def collinear(p: Pose, c: Pose, n: Pose) -> bool:
    """``c`` passes straight from ``p`` on to ``n``, both segments non-empty."""
    return p.position != c.position != n.position and turn_angle(
        p.position, c.position, n.position
    ) <= 1e-9


def pick_place_steps():
    """start -> transit -> descend -> grip -> ascend -> transit (fly-over)
    -> descend -> release"""
    return (
        ProcessStep(StepKind.STANDSTILL_ACTION, pose=P0, action="start"),
        ProcessStep(StepKind.TRANSIT),
        ProcessStep(StepKind.PRIMARY_PATH, entry=PICK_TOP, exit=PICK),
        ProcessStep(StepKind.STANDSTILL_ACTION, pose=PICK, action="grip"),
        ProcessStep(StepKind.PRIMARY_PATH, entry=PICK, exit=PICK_TOP),
        ProcessStep(StepKind.TRANSIT, clearance=160.0),
        ProcessStep(StepKind.PRIMARY_PATH, entry=PLACE_TOP, exit=PLACE),
        ProcessStep(StepKind.STANDSTILL_ACTION, pose=PLACE, action="release"),
    )


class TestProcessStep:
    def test_standstill_needs_pose_and_action(self):
        with pytest.raises(ValueError):
            ProcessStep(StepKind.STANDSTILL_ACTION, pose=P0)
        with pytest.raises(ValueError):
            ProcessStep(StepKind.STANDSTILL_ACTION, action="grip")

    def test_standstill_label_is_always_stop(self):
        with pytest.raises(ValueError):
            ProcessStep(
                StepKind.STANDSTILL_ACTION, pose=P0, action="grip",
                label=PathLabel.BLENDING,
            )
        s = ProcessStep(
            StepKind.STANDSTILL_ACTION, pose=P0, action="grip",
            label=PathLabel.ACCURATE_STOP,
        )
        assert s.label is PathLabel.ACCURATE_STOP

    def test_primary_rejects_standstill_fields(self):
        with pytest.raises(ValueError):
            ProcessStep(StepKind.PRIMARY_PATH, entry=P0, exit=PICK, action="grip")

    def test_transit_rejects_entry_exit_and_bad_clearance(self):
        with pytest.raises(ValueError):
            ProcessStep(StepKind.TRANSIT, entry=P0)
        with pytest.raises(ValueError):
            ProcessStep(StepKind.TRANSIT, clearance=0.0)
        with pytest.raises(ValueError):
            ProcessStep(StepKind.TRANSIT, clearance=-5.0)


class TestLabeling:
    def test_defaults_by_kind(self):
        labeled = label_process(pick_place_steps())
        assert labeled[0].label is PathLabel.ACCURATE_STOP
        assert labeled[1].label is PathLabel.BLENDING
        assert labeled[2].label is PathLabel.ACCURATE_PATH

    def test_explicit_labels_survive(self):
        step = ProcessStep(StepKind.TRANSIT, label=PathLabel.ACCURATE_PATH)
        assert label_process((step,))[0].label is PathLabel.ACCURATE_PATH

    def test_empty_process_rejected(self):
        with pytest.raises(EmptyProcess):
            label_process(())

    def test_non_steps_rejected(self):
        with pytest.raises(TypeError):
            label_process(("descend",))


class TestPrimaryMotions:
    def test_primary_becomes_exact_lin(self):
        labeled = label_process(pick_place_steps())
        items = plan_primary_motions(labeled, CFG)
        lin = items[2]
        assert isinstance(lin, PlannedMotion)
        assert lin.origin == "primary"
        assert lin.command.motion_type is MotionType.LIN_CARTESIAN
        assert lin.command.target == PICK
        assert lin.command.approx_distance == 0.0
        assert lin.start == PICK_TOP
        assert isinstance(items[3], StandstillItem)

    def test_blending_labeled_primary_gets_default_approx(self):
        step = ProcessStep(
            StepKind.PRIMARY_PATH, entry=P0, exit=PICK, label=PathLabel.BLENDING
        )
        items = plan_primary_motions(label_process((step,)), CFG)
        assert items[0].command.approx_distance == CFG.default_approx

    def test_unlabeled_steps_rejected(self):
        with pytest.raises(ValueError):
            plan_primary_motions(pick_place_steps(), CFG)

    def test_missing_poses_rejected(self):
        step = ProcessStep(StepKind.PRIMARY_PATH, entry=P0)
        with pytest.raises(UnresolvedPose):
            plan_primary_motions(label_process((step,)), CFG)

    def test_zero_length_primary_rejected(self):
        step = ProcessStep(StepKind.PRIMARY_PATH, entry=PICK, exit=PICK)
        with pytest.raises(ValueError):
            plan_primary_motions(label_process((step,)), CFG)


class TestPrePostMovements:
    def _items(self):
        return plan_primary_motions(label_process(pick_place_steps()), CFG)

    def test_pre_before_standstill_bound_primary(self):
        out = add_pre_post_movements(self._items(), CFG)
        pres = [i for i in out if isinstance(i, PlannedMotion) and i.origin == "pre"]
        assert len(pres) == 2  # descent into grip, descent into release
        pre = pres[0]
        # approach starts pre_post_length before the entry, collinear with the path
        assert pre.start == Pose(100.0, 0.0, 80.0 + CFG.pre_post_length)
        assert pre.command.target == PICK_TOP
        assert pre.command.approx_distance == 0.0
        assert collinear(pre.start, PICK_TOP, PICK)

    def test_post_after_standstill_bound_primary(self):
        out = add_pre_post_movements(self._items(), CFG)
        posts = [i for i in out if isinstance(i, PlannedMotion) and i.origin == "post"]
        assert len(posts) == 1  # ascend out of grip
        post = posts[0]
        assert post.start == PICK_TOP
        assert post.command.target == Pose(100.0, 0.0, 80.0 + CFG.pre_post_length)
        assert post.command.approx_distance == CFG.default_approx
        assert post.label is PathLabel.BLENDING
        assert collinear(PICK, PICK_TOP, post.command.target)

    def test_isolated_primary_untouched(self):
        step = ProcessStep(StepKind.PRIMARY_PATH, entry=P0, exit=PICK)
        items = plan_primary_motions(label_process((step,)), CFG)
        out = add_pre_post_movements(items, CFG)
        assert len(out) == 1 and out[0].origin == "primary"


class TestSecondaryMotions:
    def _chain(self):
        items = plan_primary_motions(label_process(pick_place_steps()), CFG)
        items = add_pre_post_movements(items, CFG)
        return plan_secondary_motions(items, CFG)

    def test_transit_routes_to_next_start(self):
        out = self._chain()
        transits = [
            i for i in out if isinstance(i, PlannedMotion) and i.origin == "transit"
        ]
        # plain transit: one PTP; fly-over transit: two PTPs via the waypoint
        assert len(transits) == 3
        first = transits[0]
        assert first.command.motion_type is MotionType.PTP_CARTESIAN
        assert first.start == P0
        assert first.command.target == Pose(100.0, 0.0, 80.0 + CFG.pre_post_length)
        assert first.command.approx_distance == CFG.default_approx

    def test_clearance_inserts_midpoint_waypoint(self):
        out = self._chain()
        transits = [
            i for i in out if isinstance(i, PlannedMotion) and i.origin == "transit"
        ]
        up, down = transits[1], transits[2]
        post_end = Pose(100.0, 0.0, 130.0)
        pre2_start = Pose(300.0, 200.0, 130.0)
        assert up.start == post_end
        assert up.command.target == Pose(
            0.5 * (post_end.x + pre2_start.x), 0.5 * (post_end.y + pre2_start.y), 160.0
        )
        assert down.command.target == pre2_start

    def test_clearance_below_both_endpoints_rejected(self):
        steps = (
            ProcessStep(StepKind.STANDSTILL_ACTION, pose=PICK_TOP, action="start"),
            ProcessStep(StepKind.TRANSIT, to_pose=PLACE_TOP, clearance=5.0),
        )
        items = plan_primary_motions(label_process(steps), CFG)
        with pytest.raises(UnreachableClearance):
            plan_secondary_motions(items, CFG)

    def test_zero_length_transit_vanishes(self):
        steps = (
            ProcessStep(StepKind.STANDSTILL_ACTION, pose=P0, action="start"),
            ProcessStep(StepKind.TRANSIT, to_pose=P0),
            ProcessStep(StepKind.PRIMARY_PATH, entry=P0, exit=PICK),
        )
        items = plan_primary_motions(label_process(steps), CFG)
        out = plan_secondary_motions(items, CFG)
        assert not any(
            isinstance(i, PlannedMotion) and i.origin == "transit" for i in out
        )

    def test_leading_transit_has_no_start(self):
        steps = (ProcessStep(StepKind.TRANSIT, to_pose=PICK),)
        items = plan_primary_motions(label_process(steps), CFG)
        with pytest.raises(UnresolvedPose):
            plan_secondary_motions(items, CFG)

    def test_trailing_transit_has_no_destination(self):
        steps = (
            ProcessStep(StepKind.STANDSTILL_ACTION, pose=P0, action="start"),
            ProcessStep(StepKind.TRANSIT),
        )
        items = plan_primary_motions(label_process(steps), CFG)
        with pytest.raises(UnresolvedPose):
            plan_secondary_motions(items, CFG)

    @pytest.mark.parametrize(
        "steps",
        [
            (  # a motion that starts away from the robot
                ProcessStep(StepKind.STANDSTILL_ACTION, pose=P0, action="start"),
                ProcessStep(StepKind.PRIMARY_PATH, entry=PICK_TOP, exit=PICK),
            ),
            (  # a standstill away from the robot
                ProcessStep(StepKind.PRIMARY_PATH, entry=PICK_TOP, exit=PICK),
                ProcessStep(StepKind.STANDSTILL_ACTION, pose=PLACE, action="grip"),
            ),
        ],
        ids=["motion", "standstill"],
    )
    def test_discontinuity_detected(self, steps):
        items = plan_primary_motions(label_process(steps), CFG)
        with pytest.raises(ValueError, match="process discontinuity"):
            plan_secondary_motions(items, CFG)

    @pytest.mark.parametrize("gap, joins", [(1e-10, True), (1e-8, False)])
    def test_the_chain_tolerance_is_a_nanometre(self, gap, joins):
        # a gap within 1e-9 mm joins the chain and a transit over it
        # vanishes; a wider gap breaks the chain, and a transit spans it
        off = Pose(PICK.x + gap, PICK.y, PICK.z)
        steps = (
            ProcessStep(StepKind.PRIMARY_PATH, entry=PICK_TOP, exit=PICK),
            ProcessStep(StepKind.STANDSTILL_ACTION, pose=off, action="grip"),
        )
        items = plan_primary_motions(label_process(steps), CFG)
        if joins:
            assert plan_secondary_motions(items, CFG) == items
        else:
            with pytest.raises(ValueError, match="process discontinuity"):
                plan_secondary_motions(items, CFG)
        transit = ProcessStep(StepKind.TRANSIT)
        items = plan_primary_motions(label_process(steps[:1] + (transit,) + steps[1:]), CFG)
        motions = [i for i in plan_secondary_motions(items, CFG) if isinstance(i, PlannedMotion)]
        assert [m.origin for m in motions] == (["primary"] if joins else ["primary", "transit"])

    def test_unlabeled_transit_blends(self):
        # step III b on a transit that step I never labeled
        items = [StandstillItem(P0, "start"), ProcessStep(StepKind.TRANSIT, to_pose=PICK)]
        (transit,) = plan_secondary_motions(items, CFG)[1:]
        assert transit.label is PathLabel.BLENDING
        assert transit.command.approx_distance == CFG.default_approx


class TestCoalesce:
    def _motion(self, target, label=PathLabel.BLENDING, approx=10.0):
        cmd = MotionCommand(
            MotionType.LIN_CARTESIAN, target, 250.0, 2000.0, approx_distance=approx
        )
        return PlannedMotion(cmd, P0, "primary", label)

    def test_groups_split_at_standstills(self):
        items = [
            self._motion(PICK_TOP),
            self._motion(PICK),
            StandstillItem(PICK, "grip"),
            self._motion(PLACE),
            StandstillItem(PLACE, "release"),
        ]
        plans = coalesce_continuous(items)
        assert [p.terminal_action for p in plans] == ["grip", "release"]
        assert [len(p.motions) for p in plans] == [2, 1]

    def test_final_motion_forced_exact(self):
        plans = coalesce_continuous(
            [self._motion(PICK_TOP, approx=10.0), StandstillItem(PICK_TOP, "grip")]
        )
        assert plans[0].motions[-1].approx_distance == 0.0

    def test_interior_accurate_stop_splits_without_action(self):
        items = [
            self._motion(PICK_TOP),
            self._motion(PICK, label=PathLabel.ACCURATE_STOP, approx=0.0),
            self._motion(PLACE),
        ]
        plans = coalesce_continuous(items)
        assert [p.terminal_action for p in plans] == [None, None]
        assert [len(p.motions) for p in plans] == [2, 1]

    def test_adjacent_standstills_join_actions(self):
        items = [
            self._motion(PICK),
            StandstillItem(PICK, "grip"),
            StandstillItem(PICK, "verify"),
        ]
        plans = coalesce_continuous(items)
        assert len(plans) == 1
        assert plans[0].terminal_action == "grip+verify"

    def test_leading_standstill_only_marks_start(self):
        plans = coalesce_continuous(
            [StandstillItem(P0, "start"), self._motion(PICK), StandstillItem(PICK, "grip")]
        )
        assert len(plans) == 1
        assert plans[0].terminal_action == "grip"

    def test_trailing_motions_form_unterminated_group(self):
        plans = coalesce_continuous([self._motion(PICK)])
        assert plans[0].terminal_action is None

    def test_unplanned_transit_rejected(self):
        with pytest.raises(TypeError):
            coalesce_continuous([ProcessStep(StepKind.TRANSIT)])


class TestFullPipeline:
    def test_pick_place_structure(self):
        plans = plan(pick_place_steps(), CFG)
        assert [p.terminal_action for p in plans] == ["grip", "release"]
        assert [len(p.motions) for p in plans] == [3, 6]
        g1, g2 = plans
        # group 1: transit PTP, collinear pre LIN, primary descent LIN
        assert [m.motion_type for m in g1.motions] == [
            MotionType.PTP_CARTESIAN,
            MotionType.LIN_CARTESIAN,
            MotionType.LIN_CARTESIAN,
        ]
        assert [m.approx_distance for m in g1.motions] == [CFG.default_approx, 0.0, 0.0]
        # group 2: ascend, post, fly-over PTP x2, pre, descend
        assert [m.motion_type for m in g2.motions] == [
            MotionType.LIN_CARTESIAN,
            MotionType.LIN_CARTESIAN,
            MotionType.PTP_CARTESIAN,
            MotionType.PTP_CARTESIAN,
            MotionType.LIN_CARTESIAN,
            MotionType.LIN_CARTESIAN,
        ]
        assert g2.motions[-1].approx_distance == 0.0

    def test_grip_junctions_are_collinear_pass_throughs(self):
        plans = plan(pick_place_steps(), CFG)
        grip, carry = ([m.target for m in p.motions] for p in plans[:2])
        # descend: pre start -> entry -> pick must be one straight line
        assert collinear(grip[0], grip[1], grip[2])
        # ascend out of the grip: pick -> entry -> post end straight as well
        assert collinear(grip[-1], carry[0], carry[1])

    def test_planned_output_is_not_replannable(self):
        plans = plan(pick_place_steps(), CFG)
        with pytest.raises(TypeError):
            plan(plans, CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlanningConfig(lin_velocity=0.0)
        with pytest.raises(ValueError):
            PlanningConfig(default_approx=-1.0)
        with pytest.raises(ValueError):
            PlanningConfig(pre_post_length=math.inf)


# --- randomized pipeline properties --------------------------------------------


def random_process(rng: random.Random):
    """Chained random pick-like process; always starts with a standstill."""
    cur = Pose(0.0, 0.0, 100.0)
    steps = [ProcessStep(StepKind.STANDSTILL_ACTION, pose=cur, action="start")]
    actions = []
    for i in range(rng.randint(1, 4)):
        entry = Pose(
            rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(60, 120)
        )
        exit_ = Pose(entry.x, entry.y, entry.z - rng.uniform(30, 50))
        if i == 0 or rng.random() < 0.7:
            steps.append(ProcessStep(StepKind.TRANSIT))
        else:
            # stay put: reuse previous pose chain via an explicit transit
            steps.append(ProcessStep(StepKind.TRANSIT, clearance=200.0))
        steps.append(ProcessStep(StepKind.PRIMARY_PATH, entry=entry, exit=exit_))
        action = f"act{i}"
        actions.append(action)
        steps.append(ProcessStep(StepKind.STANDSTILL_ACTION, pose=exit_, action=action))
    return tuple(steps), actions


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_pipeline_structure_holds_for_random_processes(seed):
    rng = random.Random(seed)
    steps, actions = random_process(rng)
    plans = plan(steps, CFG)
    assert [p.terminal_action for p in plans] == actions
    primary_exits = [
        s.exit for s in steps if s.kind is StepKind.PRIMARY_PATH
    ]
    flat_targets = [m.target for p in plans for m in p.motions]
    # every primary exit survives, in order, among the motion targets
    it = iter(flat_targets)
    assert all(any(t == e for t in it) for e in primary_exits)
    for p in plans:
        assert p.motions[-1].approx_distance == 0.0
    # the pipeline is deterministic
    assert repr(plan(steps, CFG)) == repr(plans)


# lin and ptp dynamics apart, so that a motion taking the other type's shows
APART = PlanningConfig(
    lin_velocity=220.0,
    lin_acceleration=1500.0,
    ptp_velocity=310.0,
    ptp_acceleration=2600.0,
    default_approx=7.0,
)
_LABELS = (None, PathLabel.ACCURATE_PATH, PathLabel.BLENDING, PathLabel.ACCURATE_STOP)


def relabeled(steps, rng: random.Random):
    """``steps`` with each primary path and transit labeled at random, None
    leaving step I's default."""
    return tuple(
        s if s.kind is StepKind.STANDSTILL_ACTION else replace(s, label=rng.choice(_LABELS))
        for s in steps
    )


def assert_planned_by_the_rule(steps, cfg: PlanningConfig):
    """Every planned motion's dynamics follow its type and its approx its
    label; the plans hold those motions, each group's last at approx 0."""
    items = plan_primary_motions(label_process(steps), cfg)
    items = plan_secondary_motions(add_pre_post_movements(items, cfg), cfg)
    motions = [i for i in items if isinstance(i, PlannedMotion)]
    for m in motions:
        c = m.command
        lin = m.origin != "transit"
        assert c.motion_type is (MotionType.LIN_CARTESIAN if lin else MotionType.PTP_CARTESIAN)
        if lin:
            assert (c.velocity, c.acceleration) == (cfg.lin_velocity, cfg.lin_acceleration)
        else:
            assert (c.velocity, c.acceleration) == (cfg.ptp_velocity, cfg.ptp_acceleration)
        blends = m.label is PathLabel.BLENDING
        assert c.approx_distance == (cfg.default_approx if blends else 0.0), m
    plans = plan(steps, cfg)
    assert all(p.motions[-1].approx_distance == 0.0 for p in plans)
    ends = set(itertools.accumulate(len(p.motions) for p in plans))
    flat = [m for p in plans for m in p.motions]
    assert len(flat) == len(motions)
    for n, (got, m) in enumerate(zip(flat, motions), 1):
        assert got == (replace(m.command, approx_distance=0.0) if n in ends else m.command)


@pytest.mark.parametrize("cfg", [CFG, APART], ids=["default", "apart"])
def test_every_planned_motion_follows_one_rule(cfg):
    for seed in range(200):
        steps, _ = random_process(random.Random(seed))
        assert_planned_by_the_rule(steps, cfg)
        assert_planned_by_the_rule(relabeled(steps, random.Random(seed)), cfg)


@pytest.mark.parametrize("setup", [SETUP_A, SETUP_B], ids=["a", "b"])
def test_the_setups_follow_the_rule(setup):
    steps = build_scenario(setup)
    for cfg in (setup.planning_config(), replace(APART, pre_post_length=setup.pre_post_length)):
        assert_planned_by_the_rule(steps, cfg)
        assert_planned_by_the_rule(relabeled(steps, random.Random(0)), cfg)
