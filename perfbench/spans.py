"""Layer spans recorded from outside the simulator.

A `Tracer` replaces public functions and methods of the ztcell modules with
wrappers that record one span per call: name, start, end, parent span and
the frame index current at the call. Every function is wrapped where the
caller looks it up:

- methods on their class, before `runner.run` builds the xApps, because the
  router keeps the bound `handle` methods it was given at subscribe time;
- module functions in every module that imported them by name, such as
  `validate_slice_table` in `e2` and in `xapps.slicing`.

`Tracer.installed()` restores every original on exit. Spans stay in memory
until `write_jsonl` is called. Times are integer nanoseconds from
`time.perf_counter_ns`, so self times are exact differences.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import Path

from ztcell import e2, ran, ric, runner
from ztcell.core import PRBMask
from ztcell.xapps import auth, intrusion, slicing

# (owner, attribute, span name). A class owner means a method (or classmethod)
# replaced on the class; a module owner means a module-level name.
TARGETS = (
    (ran.RanCell, "step_frame", "ran.step_frame"),
    (ran.RanCell, "handle_frame", "ran.handle_frame"),
    (ran.RanCell, "emit_kpm_if_due", "ran.emit_kpm"),
    (ran.UeState, "queue_bits", "ran.queue_bits"),
    (e2, "encode", "e2.encode"),
    (e2, "decode", "e2.decode"),
    (e2, "validate_slice_table", "core.validate_slice_table"),
    (slicing, "validate_slice_table", "core.validate_slice_table"),
    (PRBMask, "to_bytes", "core.prbmask.to_bytes"),
    (PRBMask, "from_bytes", "core.prbmask.from_bytes"),
    (ric.Router, "ingest_frame", "ric.ingest"),
    (ric.Router, "route", "ric.route"),
    (ric.Sdl, "put", "ric.sdl.put"),
    (ric.Sdl, "get", "ric.sdl.get"),
    (auth.AuthXapp, "handle", "auth.handle"),
    (intrusion.IntrusionXapp, "handle", "intrusion.handle"),
    (slicing.SlicingXapp, "handle", "slicing.handle"),
    (intrusion, "assess", "intrusion.assess"),
    (intrusion, "profile_generated_report", "intrusion.report_gen"),
    (intrusion, "warmup_history", "intrusion.warmup_history"),
    (intrusion, "build_profile", "intrusion.build_profile"),
    (runner, "warmup_history", "intrusion.warmup_history"),
    (runner, "build_profile", "intrusion.build_profile"),
    (runner, "frames_to_rows", "runner.frames_to_rows"),
    (runner, "summarize_rows", "runner.summarize"),
    (runner, "_write_outputs", "runner.write"),
)

# Wrapped to learn the frame index only; no span, so a legacy run, whose
# registry has no xApps, records no RIC work.
FRAME_MARKER = (ric.XappRegistry, "frame_boundary")

XAPP_HANDLERS = ("auth.handle", "intrusion.handle", "slicing.handle")


def lookup(owner, attr):
    """The raw attribute as stored, so a classmethod is restored as one."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


@contextlib.contextmanager
def patched(owner, attr, replacement):
    """Set `owner.attr` to `replacement` and restore the original on exit."""
    original = lookup(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Records spans of the wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, frame)
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.counters: Counter[str] = Counter()
        self.frame = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return `fn` wrapped to record a span; `after(args, result)` may
        add to `self.counters`."""
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hooks(self):
        c = self.counters

        def encoded(args, data):
            c["e2.bytes"] += len(data)

        def put(args, version):
            c["ric.sdl.bytes_put"] += len(args[3])

        def assessed(args, verdict):
            c["intrusion.flags"] += verdict.flagged

        def intrusion_handled(args, _):
            c["intrusion.reports"] += isinstance(args[1].body, e2.KpmIndicationBody)

        return {
            "e2.encode": encoded,
            "ric.sdl.put": put,
            "intrusion.assess": assessed,
            "intrusion.handle": intrusion_handled,
        }

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        hooks = self._after_hooks()
        with contextlib.ExitStack() as stack:
            for owner, attr, name in TARGETS:
                original = lookup(owner, attr)
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, hooks.get(name)))
                else:
                    replacement = self.wrap(name, original, hooks.get(name))
                stack.enter_context(patched(owner, attr, replacement))
            stack.enter_context(patched(*FRAME_MARKER, self._frame_marker(lookup(*FRAME_MARKER))))
            yield self

    def _frame_marker(self, fn):
        @functools.wraps(fn)
        def marker(registry, frame):
            self.frame = frame
            return fn(registry, frame)

        return marker

    # ---- analysis ------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns."""
        out = {n: {"calls": 0, "ns": 0, "self_ns": 0} for n in self.names}
        for (name_id, start, end, _, _), own in zip(self.spans, self.self_times()):
            agg = out[self.names[name_id]]
            agg["calls"] += 1
            agg["ns"] += end - start
            agg["self_ns"] += own
        return out

    def durations(self, name: str) -> list[int]:
        name_id = self._name_ids.get(name)
        return [end - start for n, start, end, _, _ in self.spans if n == name_id]

    def count_within(self, name: str, handler: str) -> int:
        """Spans called `name` whose nearest enclosing xApp handler is `handler`."""
        enclosing: list[str | None] = []  # per span, its nearest enclosing handler
        count = 0
        for name_id, _, _, parent, _ in self.spans:
            inside = None
            if parent >= 0:
                parent_name = self.names[self.spans[parent][0]]
                inside = parent_name if parent_name in XAPP_HANDLERS else enclosing[parent]
            enclosing.append(inside)
            count += inside == handler and self.names[name_id] == name
        return count

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name_id, start, end, parent, frame) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[name_id],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "frame": frame,
                        }
                    )
                    + "\n"
                )


# ---- per-layer metrics --------------------------------------------------------

# name -> (unit, better), in the order the benchmark reports them. Outcome
# counts (grants, denials, flags, RIC errors) are simulated statistics that a
# speed-up must leave unchanged; their direction is nominal.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "scenario.parse_s": ("s", "lower"),
    "ran.step_frame.calls": ("count", "lower"),
    "ran.step_frame.self_s": ("s", "lower"),
    "ran.step_frame.late_early_ratio": ("ratio", "lower"),
    "ran.queue_bits.calls": ("count", "lower"),
    "ran.queue_bits.s": ("s", "lower"),
    "ran.handle_frame.calls": ("count", "lower"),
    "ran.handle_frame.s": ("s", "lower"),
    "ran.emit_kpm.s": ("s", "lower"),
    "ran.queue_peak_bytes": ("bytes", "lower"),
    "ran.packets_enqueued": ("count", "lower"),
    "e2.encode.calls": ("count", "lower"),
    "e2.encode.s": ("s", "lower"),
    "e2.decode.calls": ("count", "lower"),
    "e2.decode.s": ("s", "lower"),
    "e2.bytes": ("bytes", "lower"),
    "core.validate_slice_table.calls": ("count", "lower"),
    "core.validate_slice_table.s": ("s", "lower"),
    "core.validate_per_table": ("ratio", "lower"),
    "core.prbmask_codec.s": ("s", "lower"),
    "ric.ingest.calls": ("count", "lower"),
    "ric.route.calls": ("count", "lower"),
    "ric.route.self_s": ("s", "lower"),
    "ric.sdl.puts": ("count", "lower"),
    "ric.sdl.gets": ("count", "lower"),
    "ric.sdl.s": ("s", "lower"),
    "ric.sdl.bytes_put": ("bytes", "lower"),
    "ric.dead_letters": ("count", "lower"),
    "ric.replays_dropped": ("count", "lower"),
    "ric.decode_errors": ("count", "lower"),
    "auth.handle.calls": ("count", "lower"),
    "auth.handle.self_s": ("s", "lower"),
    "auth.grants": ("count", "higher"),
    "auth.denials": ("count", "lower"),
    "intrusion.handle.calls": ("count", "lower"),
    "intrusion.handle.self_s": ("s", "lower"),
    "intrusion.sdl_gets_per_report": ("ratio", "lower"),
    "intrusion.assess.calls": ("count", "lower"),
    "intrusion.assess.s": ("s", "lower"),
    "intrusion.report_gen.calls": ("count", "lower"),
    "intrusion.report_gen.s": ("s", "lower"),
    "intrusion.warmup_s": ("s", "lower"),
    "intrusion.flags": ("count", "lower"),
    "slicing.handle.calls": ("count", "lower"),
    "slicing.handle.self_s": ("s", "lower"),
    "slicing.recomputes": ("count", "lower"),
    "slicing.changed_ratio": ("ratio", "higher"),
    "runner.frames_to_rows.s": ("s", "lower"),
    "runner.summarize.s": ("s", "lower"),
    "runner.write.s": ("s", "lower"),
    "runner.unattributed_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, result) -> dict[str, float]:
    """Every per-layer metric except `trace.overhead`, from one traced call.

    `result` is what the workload returned: a `RunResult` for a simulation
    run, from which the counts that the run already keeps are read, or the
    FPR estimates of a sweep, which keeps none. A layer the workload never
    entered reads 0.
    """
    totals = tracer.totals()
    empty = {"calls": 0, "ns": 0, "self_ns": 0}

    def calls(name: str) -> int:
        return totals.get(name, empty)["calls"]

    def secs(*names: str) -> float:
        return sum(totals.get(n, empty)["ns"] for n in names) / 1e9

    def self_s(*names: str) -> float:
        return sum(totals.get(n, empty)["self_ns"] for n in names) / 1e9

    steps = tracer.durations("ran.step_frame")
    tenth = len(steps) // 10
    intrusion_gets = tracer.count_within("ric.sdl.get", "intrusion.handle")
    c = tracer.counters
    m = {
        "scenario.parse_s": secs("scenario.parse"),
        "ran.step_frame.calls": calls("ran.step_frame"),
        "ran.step_frame.self_s": self_s("ran.step_frame"),
        "ran.step_frame.late_early_ratio": (
            _ratio(sum(steps[-tenth:]), sum(steps[:tenth])) if tenth else 0.0
        ),
        "ran.queue_bits.calls": calls("ran.queue_bits"),
        "ran.queue_bits.s": secs("ran.queue_bits"),
        "ran.handle_frame.calls": calls("ran.handle_frame"),
        "ran.handle_frame.s": secs("ran.handle_frame"),
        "ran.emit_kpm.s": secs("ran.emit_kpm"),
        "ran.queue_peak_bytes": 0,
        "ran.packets_enqueued": 0,
        "e2.encode.calls": calls("e2.encode"),
        "e2.encode.s": secs("e2.encode"),
        "e2.decode.calls": calls("e2.decode"),
        "e2.decode.s": secs("e2.decode"),
        "e2.bytes": c["e2.bytes"],
        "core.validate_slice_table.calls": calls("core.validate_slice_table"),
        "core.validate_slice_table.s": secs("core.validate_slice_table"),
        "core.validate_per_table": 0.0,
        "core.prbmask_codec.s": secs("core.prbmask.to_bytes", "core.prbmask.from_bytes"),
        "ric.ingest.calls": calls("ric.ingest"),
        "ric.route.calls": calls("ric.route"),
        "ric.route.self_s": self_s("ric.route"),
        "ric.sdl.puts": calls("ric.sdl.put"),
        "ric.sdl.gets": calls("ric.sdl.get"),
        "ric.sdl.s": secs("ric.sdl.put", "ric.sdl.get"),
        "ric.sdl.bytes_put": c["ric.sdl.bytes_put"],
        "ric.dead_letters": 0,
        "ric.replays_dropped": 0,
        "ric.decode_errors": 0,
        "auth.handle.calls": calls("auth.handle"),
        "auth.handle.self_s": self_s("auth.handle"),
        "auth.grants": 0,
        "auth.denials": 0,
        "intrusion.handle.calls": calls("intrusion.handle"),
        "intrusion.handle.self_s": self_s("intrusion.handle"),
        "intrusion.sdl_gets_per_report": _ratio(intrusion_gets, c["intrusion.reports"]),
        "intrusion.assess.calls": calls("intrusion.assess"),
        "intrusion.assess.s": secs("intrusion.assess"),
        "intrusion.report_gen.calls": calls("intrusion.report_gen"),
        "intrusion.report_gen.s": secs("intrusion.report_gen"),
        "intrusion.warmup_s": secs("intrusion.warmup_history", "intrusion.build_profile"),
        "intrusion.flags": c["intrusion.flags"],
        "slicing.handle.calls": calls("slicing.handle"),
        "slicing.handle.self_s": self_s("slicing.handle"),
        "slicing.recomputes": 0,
        "slicing.changed_ratio": 0.0,
        "runner.frames_to_rows.s": secs("runner.frames_to_rows"),
        "runner.summarize.s": secs("runner.summarize"),
        "runner.write.s": secs("runner.write"),
        "runner.unattributed_s": self_s("runner.run", "runner.fpr_sweep"),
    }
    if isinstance(result, runner.RunResult):
        m["ran.queue_peak_bytes"] = max(
            (sum(s.queue_bytes for s in fr.per_ue.values()) for fr in result.frames), default=0
        )
        m["ran.packets_enqueued"] = sum(ue.pkt_seq for ue in result.cell.ues.values())
        m["ric.dead_letters"] = len(result.audit.scan("dead_letter"))
        m["ric.replays_dropped"] = len(result.audit.scan("replay_dropped"))
        m["ric.decode_errors"] = len(result.audit.scan("decode_error"))
        outcomes = [
            e.get("outcome")
            for e in result.audit.entries
            if e["actor"] == "auth" and e["action"] in ("auth", "reauth")
        ]
        m["auth.grants"] = outcomes.count("granted")
        m["auth.denials"] = len(outcomes) - m["auth.grants"]
        if result.slicing is not None:
            tables = [dict(body.bindings) for _, body in result.slicing.emitted]
            changed = sum(1 for prev, cur in zip([{}] + tables, tables) if prev != cur)
            m["slicing.recomputes"] = len(tables)
            m["slicing.changed_ratio"] = _ratio(changed, len(tables))
            m["core.validate_per_table"] = _ratio(
                m["core.validate_slice_table.calls"], len(tables)
            )
    return m
