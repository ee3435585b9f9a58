"""Self-tests of the benchmark harness (not of skillbench itself).

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random
import sys
import unittest

from run import SRC, load_skillbench
from tracing import Tracer
from workloads import (
    WORKLOADS,
    NativeLong,
    Pickplace,
    Stream,
    check_flow,
    check_orderings,
    native_plan,
    stream_plan,
)

sys.path.insert(0, str(SRC))
SB = load_skillbench()


def small_stream(seed=0):
    return stream_plan(SB.core, random.Random(seed), records=24), seed


def small_native(seed=0):
    return native_plan(SB.core, random.Random(seed), motions=12), seed


class Generators(unittest.TestCase):
    def test_inputs_are_deterministic_for_a_seed(self):
        for cls in WORKLOADS.values():
            a, b, other = cls(SB, 7), cls(SB, 7), cls(SB, 8)
            for k in range(3):
                self.assertEqual(a.make_input(k), b.make_input(k), cls.name)
            self.assertNotEqual(
                [a.make_input(k) for k in range(3)], [other.make_input(k) for k in range(3)], cls.name
            )

    def test_stream_plans_mix_motion_kinds(self):
        MT = SB.core.MotionType
        wl = Stream(SB, 0)
        for k in range(5):
            plan, _ = wl.make_input(k)
            kinds = [m.motion_type for m in plan.motions]
            self.assertIn(MT.CIRCULAR, kinds)
            self.assertIn(MT.PTP_JOINT, kinds)
            self.assertGreater(plan.record_count, SB.wire.SLOT_COUNT)

    def test_native_plans_are_blended_lin_of_one_length(self):
        wl = NativeLong(SB, 0)
        lengths = set()
        for k in range(3):
            plan, _ = wl.make_input(k)
            lengths.add(len(plan.motions))
            self.assertEqual({m.motion_type for m in plan.motions}, {SB.core.MotionType.LIN_CARTESIAN})
            self.assertTrue(all(m.approx_distance > 0 for m in plan.motions[:-1]))
        self.assertEqual(len(lengths), 1)


class Tracing(unittest.TestCase):
    def test_wrappers_cover_the_layers_and_are_removed(self):
        tracer = Tracer(SB)
        names = {f"{m.__name__}.{attr}" for m, attr, _, _ in tracer.patches}
        for expected in (
            "skillbench.plc_trigger.encode_record",
            "skillbench.robot_executor.decode_command_frame",
            "skillbench.robot_executor.blend_geometry",
            "skillbench.fieldbus_sim.run",
            "skillbench.bench.run",
            "skillbench.bench.plan",
            "skillbench.bench.run_benchmark",
        ):
            self.assertIn(expected, names)
        before = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracer.patches]

        wl = Stream(SB, 0)
        with tracer.installed():
            self.assertFalse(tracer.is_clean())
            program, executor, _ = wl.execute(small_stream())
        self.assertTrue(tracer.is_clean())
        for module, attr, fn in before:
            self.assertIs(getattr(module, attr), fn)
            self.assertFalse(hasattr(fn, "__wrapped__"), attr)
        self.assertNotIn("plc_tick", vars(program))
        self.assertNotIn("tick", vars(executor))
        self.assertGreater(tracer.stats["plc_trigger.plc_tick"].calls, 0)
        self.assertGreater(tracer.stats["wire.decode_record"].calls, 0)

        pp = Pickplace(SB, 0)
        with tracer.installed():
            pp.execute(pp.make_input(0))
        self.assertTrue(tracer.is_clean())
        self.assertEqual(tracer.stats["bench.run_benchmark"].calls, 1)

    def test_self_time_excludes_nested_spans(self):
        tracer = Tracer(SB)
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        outer()
        o, i = tracer.stats["outer"], tracer.stats["inner"]
        self.assertEqual(i.calls, 3)
        self.assertEqual(o.self_ns, o.total_ns - i.total_ns)


class Checks(unittest.TestCase):
    def _flow_case(self, wl, inp):
        expected = wl.oracle(inp)
        _, executor, _ = wl.execute(inp)
        self.assertIsNone(check_flow(executor.executed, executor.pose, *expected))
        return executor.executed, executor.pose, expected

    def _assert_rejects_perturbations(self, executed, pose, expected):
        swapped = list(executed)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        moved = list(executed)
        first, n, target, dur = moved[3]
        moved[3] = (first, n, (target[0] + 0.5,) + target[1:], dur)
        for bad in (swapped, moved, executed[:-1], executed + executed[-1:]):
            self.assertIsNotNone(check_flow(bad, pose, *expected))
        off_pose = (pose[0] + 1.0,) + tuple(pose[1:])
        self.assertIsNotNone(check_flow(executed, off_pose, *expected))

    def test_stream_check_rejects_perturbed_flow(self):
        self._assert_rejects_perturbations(*self._flow_case(Stream(SB, 0), small_stream()))

    def test_native_check_rejects_perturbed_flow(self):
        self._assert_rejects_perturbations(*self._flow_case(NativeLong(SB, 0), small_native()))

    def test_pickplace_check_rejects_perturbed_aets(self):
        good = {"rc": 5091.0, "sm": 5971.0, "cm": 5107.0}
        self.assertIsNone(check_orderings(good))
        for bad in (
            {**good, "sm": 5100.0},  # SM no slower than CM
            {**good, "cm": 5200.0},  # CM more than 1% over RC
            {"rc": 5091.0, "sm": 5200.0, "cm": 5107.0},  # improvement below 0.10
            {"rc": 5091.0, "sm": 13000.0, "cm": 5107.0},  # improvement above 0.60
        ):
            self.assertIsNotNone(check_orderings(bad), bad)


if __name__ == "__main__":
    unittest.main()
