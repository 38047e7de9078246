"""ztcell benchmark: host speed, memory and set-up, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ue_crowd --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One process, no threads, one simulator call at a time: a closed loop in which
each complete `runner.run` (or `runner.fpr_sweep`) call starts when the
previous one has returned. Every call writes its outputs to a fresh directory
under `.perfbench/`, and the benchmark checks them: their SHA-256 must equal
that of the first call, and the workload's claim must hold.

`--trace 0` reports the end-to-end metrics:

- `units_per_s`: simulated frames (for `fpr_sweep`, Monte Carlo trials,
  summed over all windows) per second of one complete call; the median over
  the calls made in `--seconds`;
- `setup_s`: time from `parse_scenario` to the first simulated frame or
  trial, the median of several set-ups;
- `peak_rss_mb`: peak resident memory of a fresh child process that runs the
  workload once.

Times are reference seconds (see `refclock.py`): host time scaled to an
uncontended core, so that other tenants of a shared machine do not move them.
The raw host-time median is printed beside each.

`--trace 1` reports the per-layer metrics of `spans.py` instead, from calls
made with every layer wrapped, alternating with plain calls so that
`trace.overhead` compares the two in raw host time. The spans of the last
traced call are written to `.perfbench/spans-<workload>.jsonl`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `failed / attempted` is the share of
failed operations: calls that raised, or whose outputs or claim were wrong.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 21  # at least this many set-ups, and at least SETUP_PROBE_S of them
SETUP_PROBE_S = 1.0
CHILD_TIMEOUT_S = 150

# name -> (unit, better)
END_TO_END = {
    "units_per_s": ("units/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_simulator() -> None:
    """Put the checkout's own `src/` first on the path; refuse any other ztcell."""
    package = SRC / "ztcell"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {package}")
    sys.path.insert(0, str(SRC))
    import ztcell

    if Path(ztcell.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported ztcell from {ztcell.__file__}, not {package}")


class _SetupDone(Exception):
    """Raised at the first frame or trial, to end a set-up measurement."""


class Session:
    """Runs one workload on one seed and keeps the tally of checked operations."""

    def __init__(self, workload, seed: int, tmp: Path) -> None:
        import workloads

        self.wl = workload
        self.seed = seed
        self.tmp = tmp
        self.text = workload.text(seed)
        self.parse = lambda: workloads.parse(workload, self.text)
        self.digest_of = lambda out: workloads.digest(workload, out)
        self.reference: str | None = None
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def _fail(self, what: str) -> None:
        self.problems.append(what)
        print(f"  FAILED: {what}", file=sys.stderr)

    def _check_digest(self, digest: str, source: str) -> bool:
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self._fail(f"{source} digest {digest[:12]} differs from {self.reference[:12]}")
            return False
        return True

    def call(self, sc, execute=None, timer=None):
        """One complete, checked call. Returns its result, or None if it
        failed. `timer`, if given, is a `refclock.ScaledTimer` to time it."""
        execute = execute or self.wl.execute
        out = Path(tempfile.mkdtemp(dir=self.tmp))
        self.attempted += 1
        try:
            gc.collect()
            if timer is None:
                result = execute(sc, out)
            else:
                with timer.timing(self.wl.progress):
                    result = execute(sc, out)
            claim = self.wl.check(sc, result)
            digest = self.digest_of(out)
        except Exception as err:  # a crashing call is a failed operation; keep measuring
            self._fail(f"{type(err).__name__}: {err}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if claim:
            self._fail("; ".join(claim))
            return None
        return result if self._check_digest(digest, "run") else None

    def setup(self):
        """Time parse and set-up of one call, up to its first frame or trial.
        Returns the `ScaledTimer`, or None if the set-up failed."""
        import refclock
        import spans

        def stop(*args, **kwargs):
            raise _SetupDone

        timer = refclock.ScaledTimer()
        out = Path(tempfile.mkdtemp(dir=self.tmp))
        self.attempted += 1
        try:
            gc.collect()
            with spans.patched(*self.wl.first_step, stop), timer.timing():
                self.wl.execute(self.parse(), out)
        except _SetupDone:
            return timer
        except Exception as err:
            self._fail(f"set-up {type(err).__name__}: {err}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self._fail("call ended without reaching its first frame or trial")
        return None

    def peak_rss_mb(self) -> float | None:
        """Peak RSS of a fresh child process that runs the workload once;
        its output digest becomes the reference if none is set yet."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", self.wl.name, "--seed", str(self.seed)]
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail(f"child run exceeded {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            self._fail(f"child run exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        if not self._check_digest(proc.stdout.split()[-1], "child run"):
            return None
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


def traced_call(session: Session):
    """One checked call, parse included, with every layer wrapped.
    Returns (tracer, result or None)."""
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        sc = tracer.wrap("scenario.parse", session.parse)()
        result = session.call(sc, tracer.wrap(session.wl.call, session.wl.execute))
    return tracer, result


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def measure(session: Session, seconds: float) -> dict[str, float]:
    """End-to-end metrics: timed calls, set-up probes and one child for memory."""
    import refclock

    wl = session.wl
    # First, while this process is small: a child's peak RSS counts the
    # parent's resident pages it shared until it called exec.
    rss = session.peak_rss_mb()
    sc = session.parse()
    setups, probes = [], 0
    deadline = time.monotonic() + SETUP_PROBE_S
    while probes < SETUP_PROBES or time.monotonic() < deadline:
        probes += 1
        timer = session.setup()
        if timer is not None:
            setups.append(timer)
    calls = []
    deadline = time.monotonic() + seconds
    while True:
        timer = refclock.ScaledTimer()
        if session.call(sc, timer=timer) is not None:
            calls.append(timer)
        if time.monotonic() >= deadline:
            break
    if not calls or not setups or rss is None:
        raise SystemExit("perfbench: no successful measurement; see the failures above")

    units = wl.units(sc)
    rates = [units / t.scaled_s for t in calls]
    raw_rates = [units / t.raw_s for t in calls]
    setup_s = [t.scaled_s for t in setups]
    raw_setup_s = [t.raw_s for t in setups]
    alias = f"{wl.unit}_per_s"
    print(f"  {alias:<14} {statistics.median(rates):12.6g} {wl.unit}/s  (median over calls; "
          f"{_summary(rates)}; raw host median {statistics.median(raw_rates):.6g})")
    print(f"  {'setup_s':<14} {statistics.median(setup_s):12.6g} s  (median over set-ups; "
          f"{_summary(setup_s)}; raw host median {statistics.median(raw_setup_s):.6g})")
    print(f"  {'peak_rss_mb':<14} {rss:12.6g} MB  (one fresh child process)")
    return {
        "units_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss,
    }


def measure_layers(session: Session, seconds: float) -> dict[str, float]:
    """Per-layer metrics: traced calls alternating with plain ones."""
    import spans

    wl = session.wl
    sc = session.parse()
    plain, traced, per_call = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        root_only = spans.Tracer()
        if session.call(sc, root_only.wrap(wl.call, wl.execute)) is not None:
            plain.append(sum(root_only.durations(wl.call)))
        tracer, result = traced_call(session)
        if result is not None:
            traced.append(sum(tracer.durations(wl.call)))
            per_call.append(spans.layer_metrics(tracer, result))
        if time.monotonic() >= deadline:
            break
    if not plain or not per_call:
        raise SystemExit("perfbench: no successful traced call; see the failures above")
    metrics = {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    out = WORK / f"spans-{wl.name}.jsonl"
    tracer.write_jsonl(out)
    print(f"  {len(per_call)} traced and {len(plain)} plain calls; spans of the last "
          f"traced call in {out.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:14.6g} {spans.LAYER_METRICS[name][0]}")
    return metrics


def run_child(workload, seed: int) -> int:
    """Run the workload once in this fresh process and print its digest."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        session = Session(workload, seed, Path(tmp))
        out = Path(tmp) / "out"
        sc = session.parse()
        claim = workload.check(sc, workload.execute(sc, out))
        if claim:
            print("; ".join(claim), file=sys.stderr)
            return 1
        print(session.digest_of(out))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, as a single-workload run would be."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S + 3 * args.seconds + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_simulator()
    import spans
    import workloads

    if args.workload == "all" and not args.child:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[args.workload]
    if args.child:
        return run_child(wl, args.seed)

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        session = Session(wl, args.seed, Path(tmp))
        print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}: {wl.why}")
        if args.trace:
            values = measure_layers(session, args.seconds)
            units = {n: u for n, (u, _) in spans.LAYER_METRICS.items()}
        else:
            values = measure(session, args.seconds)
            units = {n: u for n, (u, _) in END_TO_END.items()}
    print(f"  {'failed_ops':<14} {session.failed / session.attempted:12.6g} ratio  "
          f"({session.failed} of {session.attempted} operations; digest "
          f"{(session.reference or 'none')[:16]})")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
