"""Outside-in tracing of skillbench for the benchmark's traced run.

Nothing in ``src/`` is instrumented.  Instead, the public functions of each
layer are replaced, on the module attributes their callers look up, by
wrappers that time every call:

* ``wire`` codec functions and ``explode_plan`` in the modules that import
  them (``plc_trigger``, ``robot_executor``, ``fieldbus_sim``),
* ``trajectory`` timing functions in ``robot_executor``,
* ``planner.plan`` in ``bench``,
* the entry points the benchmark itself calls: ``fieldbus_sim.run`` (also
  under its imported name in ``bench``) and ``bench.run_benchmark``.

Inside a traced ``run``, the program's ``plc_tick`` and the executor's
``tick`` are shadowed by instance attributes for the length of the call, so
each PLC and robot cycle is a span too.  Self time comes from a nesting
stack: a span's duration minus the durations of the spans it directly
contains.  Wrappers are installed only around a timed execution
(``Tracer.installed``) and removed afterwards, so untraced code is never
patched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

WIRE_FUNCTIONS = (
    "encode_record",
    "decode_record",
    "encode_command_frame",
    "decode_command_frame",
    "encode_feedback_frame",
    "decode_feedback_frame",
    "explode_plan",
)
TRAJECTORY_FUNCTIONS = ("segment_time", "blend_geometry", "ptp_time")
# modules whose imported names are wrapped; bench and fieldbus_sim also hold
# the entry points the benchmark calls
CALLER_MODULES = ("plc_trigger", "robot_executor", "fieldbus_sim", "bench")


class SpanStats:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "total_ns", "self_ns", "changed")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.changed = 0  # calls that returned a new image object (ticks only)


class Tracer:
    """Collects span statistics; keeps every span while ``recording``."""

    def __init__(self, sb):
        self.stats: dict[str, SpanStats] = {}
        self.trace_events = 0
        self.recording = False
        self.spans: list[tuple] = []  # (id, parent_id, name, start_ns, end_ns)
        self._stack: list[list] = []  # [child_ns, span_id] per open span
        self._next_id = 1
        self._idle_cmd = sb.wire.IDLE_COMMAND_BYTES
        self._idle_fb = sb.wire.IDLE_FEEDBACK_BYTES
        self.patches = self._plan_patches(sb)

    # --- spans ----------------------------------------------------------------

    def _open(self):
        frame = [0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name, stats, frame, t0, t1):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        stats.calls += 1
        stats.total_ns += dur
        stats.self_ns += dur - frame[0]
        if stack:
            stack[-1][0] += dur
        if self.recording:
            parent = stack[-1][1] if stack else 0
            self.spans.append((frame[1], parent, name, t0, t1))

    def wrap(self, name, fn):
        """``fn`` wrapped so that each call is one span called ``name``."""
        stats = self.stats.setdefault(name, SpanStats())
        clock = time.perf_counter_ns
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, stats, frame, t0, clock())

        traced.__wrapped__ = fn
        return traced

    def _wrap_tick(self, name, bound, idle_image):
        """A cyclic entry point; also counts calls that return a new image."""
        stats = self.stats.setdefault(name, SpanStats())
        clock = time.perf_counter_ns
        open_, close = self._open, self._close
        last = [idle_image]

        def traced(t_us, image):
            frame = open_()
            t0 = clock()
            try:
                out = bound(t_us, image)
            finally:
                close(name, stats, frame, t0, clock())
            if out is not last[0]:
                last[0] = out
                stats.changed += 1
            return out

        return traced

    def _wrap_run(self, run):
        timed_run = self.wrap("fieldbus_sim.run", run)

        def traced_run(program, executor, *args, **kwargs):
            program.plc_tick = self._wrap_tick(
                "plc_trigger.plc_tick", program.plc_tick, self._idle_cmd
            )
            executor.tick = self._wrap_tick(
                f"robot_executor.{type(executor).__name__}.tick",
                executor.tick,
                self._idle_fb,
            )
            try:
                result = timed_run(program, executor, *args, **kwargs)
            finally:
                del program.plc_tick
                del executor.tick
            self.trace_events += len(result.trace.events)
            return result

        traced_run.__wrapped__ = run
        return traced_run

    # --- patching -------------------------------------------------------------

    def _plan_patches(self, sb):
        """(module, attribute, original, wrapper) for every wrapped name."""
        targets = {}  # id(original) -> (original, wrapper)
        for name in WIRE_FUNCTIONS:
            fn = getattr(sb.wire, name)
            targets[id(fn)] = (fn, self.wrap(f"wire.{name}", fn))
        for name in TRAJECTORY_FUNCTIONS:
            fn = getattr(sb.trajectory, name)
            targets[id(fn)] = (fn, self.wrap(f"trajectory.{name}", fn))
        targets[id(sb.planner.plan)] = (sb.planner.plan, self.wrap("planner.plan", sb.planner.plan))
        run = sb.fieldbus_sim.run
        targets[id(run)] = (run, self._wrap_run(run))
        rb = sb.bench.run_benchmark
        targets[id(rb)] = (rb, self.wrap("bench.run_benchmark", rb))

        patches = []
        for mod_name in CALLER_MODULES:
            module = getattr(sb, mod_name)
            for attr, value in vars(module).items():
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value, hit[1]))
        return patches

    def is_clean(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(getattr(m, attr) is orig for m, attr, orig, _ in self.patches)

    @contextmanager
    def installed(self):
        """Wrappers in place for the body, originals restored afterwards."""
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self.patches:
                setattr(module, attr, original)

    # --- results --------------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
            for i, p, n, s, e in self.spans
        ]

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer: the first component of each span name."""
        out: dict[str, int] = {}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + st.self_ns
        return out
