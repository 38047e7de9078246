"""Host time scaled to a reference core speed.

On a shared machine the speed of a core swings by up to 2x within seconds,
as other tenants load the hardware thread that shares it. Such swings hide
any change in the simulator itself. `ScaledTimer` therefore cuts a call into
segments of about 20 ms at progress points inside it (the start of a frame,
or one FPR trial) and runs a fixed calibration kernel at every cut. The
slowdown of a segment is the mean kernel time at its two ends over
`NOMINAL_NS`, the kernel time on an uncontended core; dividing the segment
by that slowdown raised to `SENSITIVITY` gives the host time it would take
on such a core: reference seconds.

The kernel is a tight loop and slows more under contention than the
simulator, whose time goes more to memory. `SENSITIVITY` is the exponent at
which scaled call times stopped correlating with raw ones over 17 to 31
calls each of `flood_isolated`, `ue_crowd` and `fpr_sweep` (1.0 left a
correlation of -0.8 and a call-to-call spread of 5 to 9%; 0.85 left -0.4 to
+0.5 and 2.5 to 4%).

The kernel's own time lies outside every segment. A progress point costs one
clock read per call, which is part of the measured time.
"""
from __future__ import annotations

import contextlib
import time

import spans

KERNEL_LOOPS = 2000
# Kernel time on an uncontended core of a 2.1 GHz Xeon under Python 3.11.
NOMINAL_NS = 700_000
SEGMENT_NS = 20_000_000
SENSITIVITY = 0.85


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def kernel_ns() -> int:
    """Run the calibration kernel once and return its host time.

    It mixes object creation, attribute reads, list and dict updates, like
    the simulator, and frees what it allocates, so it never triggers the
    cyclic garbage collector.
    """
    start = time.perf_counter_ns()
    table: dict[int, int] = {}
    recent: list[_Pair] = []
    for i in range(KERNEL_LOOPS):
        pair = _Pair(i, i * 3 % 11)
        recent.append(pair)
        table[i & 511] = pair.a + pair.b
        if len(recent) > 256:
            recent.pop(0)
    return time.perf_counter_ns() - start


class ScaledTimer:
    """Times one block in calibrated segments; see the module docstring."""

    def __init__(self) -> None:
        self.segments_ns: list[int] = []
        self.kernels_ns: list[int] = []
        self._last = 0

    def _cut(self) -> None:
        now = time.perf_counter_ns()
        self.segments_ns.append(now - self._last)
        self.kernels_ns.append(kernel_ns())
        self._last = time.perf_counter_ns()

    def _progress_marker(self, original):
        clock = time.perf_counter_ns

        def marker(*args, **kwargs):
            if clock() - self._last >= SEGMENT_NS:
                self._cut()
            return original(*args, **kwargs)

        return marker

    @contextlib.contextmanager
    def timing(self, progress: tuple[object, str] | None = None):
        """Time the block; `progress` is an (owner, attribute) the block calls
        often, where the timer may cut a segment."""
        with contextlib.ExitStack() as stack:
            if progress is not None:
                marker = self._progress_marker(spans.lookup(*progress))
                stack.enter_context(spans.patched(*progress, marker))
            self.kernels_ns.append(kernel_ns())
            self._last = time.perf_counter_ns()
            try:
                yield self
            finally:
                self._cut()

    @property
    def raw_s(self) -> float:
        return sum(self.segments_ns) / 1e9

    @property
    def scaled_s(self) -> float:
        k = self.kernels_ns
        return sum(
            seg * (2 * NOMINAL_NS / (k[i] + k[i + 1])) ** SENSITIVITY
            for i, seg in enumerate(self.segments_ns)
        ) / 1e9
