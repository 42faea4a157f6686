"""Shared machinery of the benchmark: run context, span tracing, statistics.

Nothing here imports numpy or the program under test at module level:
``run.py`` fixes the BLAS thread settings before numpy is first imported.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

clock = time.perf_counter


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span is ``(id, name, start, end, parent_id)``; the parent is the
    innermost span open on the same thread when the call began.  Wrappers
    stay installed for the whole traced run, and ``recording`` switches
    span capture on and off so one process can time the same work with
    and without recording.  ``on_call`` hooks run whether or not spans
    are recorded; they collect counts from arguments and results.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.recording = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Union[None, str, Callable[[tuple], str]],
        on_call: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner[attr]`` (a dict) or ``owner.attr`` (a module
        function or a class method).  ``name=None`` records no span."""
        if isinstance(owner, dict):
            raw = original = owner[attr]
            install = functools.partial(owner.__setitem__, attr)
        else:
            raw = vars(owner)[attr]
            original = getattr(owner, attr)
            install = functools.partial(setattr, owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.recording and name is not None:
                stack = tracer._stack()
                span_id = next(tracer._ids)
                parent = stack[-1] if stack else None
                stack.append(span_id)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    label = name if isinstance(name, str) else name(args)
                    tracer.spans.append((span_id, label, start, end, parent))
            else:
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        self._installed.append((install, raw))
        install(wrapper)

    def unwrap_all(self) -> None:
        while self._installed:
            install, raw = self._installed.pop()
            install(raw)

    def self_times_ms(self, scale: Callable[[float, float], float]) -> Dict[str, List[float]]:
        """Per span name, each call's duration minus its children's, in ms,
        times ``scale`` over the span."""
        children: Dict[int, float] = {}
        for _id, _name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        out: Dict[str, List[float]] = {}
        for span_id, name, start, end, _parent in self.spans:
            own = (end - start) - children.get(span_id, 0.0)
            out.setdefault(name, []).append(own * 1e3 * scale(start, end))
        return out

    def write(self, path: Path, origin: float) -> None:
        """Dump every span as ``[id, name, start_s, end_s, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [span_id, name, round(start - origin, 7), round(end - origin, 7), parent]
            for span_id, name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps({"origin": "process start", "spans": rows}))


# The host's speed flips between states (up to about 1.8x apart on the
# 2-core box this was built on) on a scale of seconds, and the program's
# CPU-bound work follows a fixed reference workload closely.  So times are
# scaled by REFERENCE_MS over the reference's time measured nearby:
# reported times are milliseconds at the speed where the reference takes
# REFERENCE_MS.  The slow state hurts cache-heavy code more than a tight
# arithmetic loop, so the reference is the geometric mix (weights 0.7 and
# 0.3) of a tight loop and a walk through a shuffled list that outgrows the
# core's caches; that mix tracked both the decode and the GA workloads.
# Waits a workload chooses itself are not scaled (see ``Context.op``).  The
# reference only runs while no operation is in flight, so it measures the
# host, not the program.  The raw times are in the detail output.
REFERENCE_MS = 1.0
TIGHT_LOOPS = 20000
WALK_SIZE = 50000
WALK_STEPS = 10000
TIGHT_WEIGHT = 0.7
CANARY_EVERY_S = 0.1
CANARY_NEAR_S = 0.25


class SpeedReference:
    """The fixed, allocation-free Python workload the host speed is read from."""

    def __init__(self) -> None:
        self.values = list(range(WALK_SIZE))
        order = list(range(WALK_SIZE))
        random.Random(0).shuffle(order)
        self.order = order[:WALK_STEPS]

    def _tight(self) -> None:
        x = 0
        for i in range(TIGHT_LOOPS):
            x += i * 3 ^ 5

    def _walk(self) -> None:
        values, total = self.values, 0
        for i in self.order:
            total += values[i]

    def measure_ms(self) -> float:
        """Best of three runs of each part, mixed geometrically."""
        best = []
        for part in (self._tight, self._walk):
            times = []
            for _ in range(3):
                start = clock()
                part()
                times.append(clock() - start)
            best.append(min(times) * 1e3)
        return math.exp(TIGHT_WEIGHT * math.log(best[0])
                        + (1.0 - TIGHT_WEIGHT) * math.log(best[1]))


@dataclasses.dataclass
class Context:
    """What a workload needs from the harness for one run.

    Workloads report each operation with :meth:`op` and each throughput
    window with :meth:`window`, and call :meth:`tick` at points where the
    program has no work in flight, so the speed reference is sampled
    through the run without overlapping any operation.
    """

    workload: str
    seed: int
    seconds: float
    tiny: bool
    root: Path
    started: float                      # clock() at process start
    tracer: Optional[Tracer] = None
    imports_end: float = 0.0
    setup_reps: List[tuple] = dataclasses.field(default_factory=list)    # (start, end)
    ops: List[tuple] = dataclasses.field(default_factory=list)           # (start, end, recorded, scaled, group)
    windows: List[tuple] = dataclasses.field(default_factory=list)       # (start, end, units, recorded)
    canary: List[tuple] = dataclasses.field(default_factory=list)        # (start, end, ms)
    peak_rss_mb: float = 0.0
    reference: SpeedReference = dataclasses.field(default_factory=SpeedReference)
    _work: Optional[Path] = None
    _mids: List[float] = dataclasses.field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    # -- recording ---------------------------------------------------------

    def tick(self, force: bool = False) -> None:
        """Sample the speed reference if none was taken in the last 0.1 s."""
        start = clock()
        if force or not self.canary or start - self.canary[-1][1] >= CANARY_EVERY_S:
            ms = self.reference.measure_ms()
            self.canary.append((start, clock(), ms))

    def op(self, start: float, end: float, recorded: bool,
           scaled: bool = True, group: int = 0) -> None:
        """One operation; ``scaled=False`` for a time that is mostly waits
        the workload chose itself (a batch window, an arrival schedule),
        which do not follow the host's speed.  See ``latency_percentile``
        for ``group``."""
        self.ops.append((start, end, recorded, scaled, group))

    def window(self, start: float, end: float, units: float, recorded: bool) -> None:
        self.windows.append((start, end, units, recorded))

    def imports_done(self) -> None:
        """Mark the end of the one-time imports (the start of setup)."""
        self.imports_end = clock()

    def repeat_setup(self, build: Callable[[], Any], reps: int) -> Any:
        """Run the workload's one-time set-up ``reps`` times; keep the last.

        Each repetition is timed on its own; ``setup_s`` reports the
        imports plus the median repetition.
        """
        built = None
        for _ in range(reps):
            if built is not None and hasattr(built, "close"):
                built.close()
            self.tick(force=True)
            start = clock()
            built = build()
            self.setup_reps.append((start, clock()))
        self.tick(force=True)
        return built

    def segment_recorded(self, index: int) -> bool:
        """Traced runs alternate recorded and unrecorded segments.

        Even-numbered segments record spans, odd-numbered ones do not;
        comparing the two gives the tracing overhead within one process.
        """
        recorded = self.traced and index % 2 == 0
        if self.tracer is not None:
            self.tracer.recording = recorded
        return recorded

    def end_timed_phase(self) -> None:
        """Stop span recording and sample peak memory before the checks."""
        if self.tracer is not None:
            self.tracer.recording = False
        self.tick(force=True)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0

    # -- scaling to the reference speed ------------------------------------

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the median reference sample taken from 0.25 s
        before ``start`` to 0.25 s after ``end``."""
        if len(self._mids) != len(self.canary):
            self._mids = [(c_start + c_end) / 2 for c_start, c_end, _ in self.canary]
        mids = self._mids
        lo = bisect.bisect_left(mids, start - CANARY_NEAR_S)
        hi = bisect.bisect_right(mids, end + CANARY_NEAR_S)
        if lo == hi:
            nearest = min(range(len(mids)), key=lambda i: abs(mids[i] - end))
            lo, hi = nearest, nearest + 1
        return REFERENCE_MS / statistics.median(ms for _, _, ms in self.canary[lo:hi])

    def busy(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` not spent sampling the reference."""
        overlap = sum(max(0.0, min(end, c_end) - max(start, c_start))
                      for c_start, c_end, _ in self.canary)
        return end - start - overlap

    def latencies_ms(self, recorded: Optional[bool] = None) -> List[float]:
        return [(end - start) * 1e3 * (self.scale(start, end) if scaled else 1.0)
                for start, end, rec, scaled, _ in self.ops
                if recorded is None or rec == recorded]

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of each group's latencies, median over
        groups: one queueing episode then moves one group's tail, not the
        run's.  Ops left in the default group are pooled."""
        groups: Dict[int, List[float]] = {}
        for op, latency in zip(self.ops, self.latencies_ms()):
            groups.setdefault(op[4], []).append(latency)
        return statistics.median(percentile(values, q) for values in groups.values())

    def rates(self) -> List[float]:
        return [units / self.busy(start, end) / self.scale(start, end)
                for start, end, units, _ in self.windows]

    def setup_s(self) -> float:
        imports = (self.busy(self.started, self.imports_end)
                   * self.scale(self.started, self.imports_end))
        reps = [(end - start) * self.scale(start, end) for start, end in self.setup_reps]
        return imports + statistics.median(reps)

    def speed(self) -> Dict[str, float]:
        """The reference loop's raw times over the run (detail output)."""
        samples = [ms for _, _, ms in self.canary]
        return {"reference_ms": REFERENCE_MS, "samples": len(samples),
                "min_ms": min(samples), "median_ms": statistics.median(samples),
                "max_ms": max(samples)}

    # -- scratch space -----------------------------------------------------

    def workdir(self) -> Path:
        """A fresh directory inside the checkout, removed by ``cleanup``."""
        if self._work is None:
            base = self.root / ".perfbench" / "tmp"
            base.mkdir(parents=True, exist_ok=True)
            self._work = Path(tempfile.mkdtemp(prefix="%s-" % self.workload, dir=base))
        return Path(tempfile.mkdtemp(dir=self._work))

    def cleanup(self) -> None:
        if self._work is not None:
            shutil.rmtree(self._work, ignore_errors=True)
            self._work = None


@dataclasses.dataclass
class Outcome:
    """What a workload found besides its timings; ``run.py`` reports it."""

    op_unit: str
    attempted: int
    failed: int
    approx_mse: float
    checks: Dict[str, bool]
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    detail: Dict[str, Any] = dataclasses.field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def fingerprint() -> Dict[str, Any]:
    """Machine and library facts that change what the timings mean."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads_setting": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _openblas_threads(),
    }


def _openblas_threads() -> Optional[int]:
    """Ask the loaded OpenBLAS for its thread count (``None`` if unknown)."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None
