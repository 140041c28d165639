"""Shared machinery: honesty guards, statistics, spans, samples, children.

Everything here is benchmark-side.  The program under test is reached only
through its public API (``Session``, ``Executable``, ``run_sweep``,
``autotune``, ``fuseflow serve`` and the layer functions ``layers.py``
names); nothing in ``src/`` is patched or instrumented.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

import catalogue

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

#: Functional-correctness tolerance against the dense numpy reference (the
#: program's own ``VERIFY_TOLERANCE``, restated so the oracle is ours).
TOLERANCE = 1e-6


class GuardError(RuntimeError):
    """An honesty guard tripped: the run would measure the wrong path."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def require_program() -> None:
    """Exit non-zero unless the program's source tree sits beside bench/."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"bench: no program to measure: {SRC}/repro is missing (run "
            "from a checkout that holds the repository, not bench/ alone)\n"
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def scrub_env() -> List[str]:
    """Remove every ``FUSEFLOW_*`` variable; returns the names removed.

    Nine environment switches change backend, tier, caches and fault
    injection.  The harness passes each option explicitly instead, so a
    number never depends on the shell it was measured from.
    """
    removed = sorted(k for k in os.environ if k.startswith("FUSEFLOW_"))
    for name in removed:
        del os.environ[name]
    return removed


def assert_clean_env() -> None:
    """Guard: refuse to measure with a ``FUSEFLOW_*`` variable set."""
    leaked = sorted(k for k in os.environ if k.startswith("FUSEFLOW_"))
    if leaked:
        raise GuardError(
            f"FUSEFLOW_* variables {leaked} are set; scrub_env() must run "
            "before any workload"
        )


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: scrubbed, importing this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FUSEFLOW_")}
    env["PYTHONPATH"] = SRC
    return env


def make_session(backend: str, disk_cache, session_cls=None, **kwargs):
    """A ``Session`` with every execution option passed explicitly.

    ``backend`` and ``disk_cache`` are required so no workload can fall
    back to an environment default; the simulation options are pinned to
    the values a user gets with a clean environment.  ``session_cls`` lets
    a traced pass substitute a span-recording subclass.
    """
    from repro import Session

    if backend not in ("interp", "columnar", "codegen"):
        raise GuardError(f"backend must be explicit, got {backend!r}")
    if disk_cache is None:
        raise GuardError("disk_cache must be explicit (False or a directory)")
    return (session_cls or Session)(
        backend=backend,
        disk_cache=disk_cache,
        sim_cache=True,
        debug_streams=False,
        **kwargs,
    )


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``bench/out`` (runs stay inside the checkout)."""
    os.makedirs(OUT, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=OUT)


def peak_rss_mb(children: bool) -> float:
    """``ru_maxrss`` in MiB of this process, or of its reaped children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def data_seed(seed: int, salt: int) -> int:
    """The data seed of input ``salt`` under workload seed ``seed``."""
    return (seed * 7919 + salt * 104729 + 1) % (2**31 - 1)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def gmean(values: Iterable[float]) -> float:
    """Geometric mean of the positive values (0.0 when there are none)."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q`` (0..1) quantile."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
#: What one ``calibration_ms`` takes on the machine the bounds were fixed
#: on, in its undisturbed state.  Times are reported at this speed.
CALIBRATION_REFERENCE_MS = 5.2


def calibration_ms() -> float:
    """Time a fixed piece of harness-only work: the host's speed right now.

    The sandbox this runs in shares its cores: for minutes at a time the
    same code runs 20-60 % slower (wall and CPU time alike), which no
    amount of repetition inside a 10 s run averages out.  So every
    CPU-bound request is timed next to this kernel — interpreter work
    (dict, tuple, sort) plus numpy work (cumsum, repeat, argsort, gather),
    the two things the program under test is made of — and its time is
    reported at reference speed: ``ms * CALIBRATION_REFERENCE_MS /
    calibration_ms``.  The kernel touches nothing of the program, so a
    change to the program cannot move it; the same kernel runs on both
    sides of any comparison.
    """
    import numpy as np

    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        table = {}
        for i in range(40000):
            table[i & 2047] = (i, i * 2)
        sorted(table.values())
        a = np.arange(100000, dtype=np.float64)
        b = np.cumsum(a)
        c = np.repeat(a[:20000], 5)
        idx = np.argsort(c[:30000], kind="stable")
        b[idx % 1000].sum()
        best = min(best, (time.perf_counter() - started) * 1e3)
    return best


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One timed interval.  A stopwatch always; a trace record when kept."""

    __slots__ = ("name", "start", "end", "parent", "request", "args", "pid")

    def __init__(self, name: str, parent: Optional["Span"], request: str, args):
        self.name = name
        self.parent = parent
        self.request = request
        self.args = args
        self.pid = os.getpid()
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Stopwatch spans, kept in memory only while ``enabled``.

    End-to-end runs use it with ``enabled=False``: ``span`` then only reads
    the clock twice.  The traced pass flips ``enabled`` and every span is
    appended to ``spans`` with its parent and the request id it belongs
    to; nothing is written until the run ends.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._request = ""

    @contextmanager
    def span(self, name: str, request: Optional[str] = None, **args):
        parent = self._stack[-1] if self._stack else None
        if request is not None:
            self._request = request
        sp = Span(name, parent, self._request, args)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self.enabled:
                self.spans.append(sp)

    def add(self, name, start, end, request, parent=None, pid=None, **args) -> Span:
        """Record a span observed from outside (a worker's, a server's)."""
        sp = Span(name, parent, request, args)
        sp.start, sp.end = start, end
        if pid is not None:
            sp.pid = pid
        if self.enabled:
            self.spans.append(sp)
        return sp

    def self_ms(self) -> Dict[int, float]:
        """Span id -> self time: duration minus what child spans cover."""
        out = {id(sp): sp.ms for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None and id(sp.parent) in out:
                out[id(sp.parent)] -= sp.ms
        return out

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Chrome-trace ("X" complete) events, one per kept span."""
        own = self.self_ms()
        return [
            {
                "name": sp.name,
                "ph": "X",
                "ts": sp.start * 1e6,
                "dur": (sp.end - sp.start) * 1e6,
                "pid": sp.pid,
                "tid": sp.args.get("tid", 0),
                "args": {
                    "request": sp.request,
                    "parent": sp.parent.name if sp.parent else None,
                    "self_ms": own[id(sp)],
                    **sp.args,
                },
            }
            for sp in self.spans
        ]


# ----------------------------------------------------------------------
# Samples and their aggregation
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One request of a timed round."""

    cls: str
    ok: bool
    ms: float
    why: str = ""
    compile_ms: Optional[float] = None
    cycles: Optional[float] = None
    dram_bytes: Optional[float] = None
    loc: Optional[int] = None
    #: Class the sim_* figures group by (``None`` = same as ``cls``).
    sim_cls: Optional[str] = None
    #: Host speed when the request ran (reference / calibration); times are
    #: reported multiplied by it.  1.0 = not a CPU-bound request.
    speed: float = 1.0


def by_class(samples: List[Sample], attr: str, key: str = "cls") -> Dict[str, float]:
    """Class -> median of ``attr`` over the class's verified samples."""
    groups: Dict[str, List[float]] = {}
    scale = attr in ("ms", "compile_ms")
    for s in samples:
        value = getattr(s, attr)
        name = getattr(s, key) or s.cls
        if s.ok and value is not None:
            groups.setdefault(name, []).append(value * s.speed if scale else value)
    return {name: median(values) for name, values in groups.items()}


def end_to_end(
    samples: List[Sample], window_s: float, over_classes: bool
) -> Dict[str, float]:
    """The end-to-end metrics every workload derives from its samples.

    ``window_s`` is the timed window at reference speed.  Percentiles are
    taken over the per-class medians where every class is an equal share of
    the requests (``over_classes``), over the raw samples otherwise.
    """
    good = [s for s in samples if s.ok]
    if over_classes:
        times = list(by_class(samples, "ms").values())
    else:
        times = [s.ms * s.speed for s in good]
    return {
        "request_ms_gmean": gmean(by_class(samples, "ms").values()),
        "request_ms_p50": percentile(times, 0.50),
        "request_ms_p95": percentile(times, 0.95),
        "throughput_rps": len(good) / window_s if window_s > 0 else 0.0,
        "compile_ms_gmean": gmean(by_class(samples, "compile_ms").values()),
        "sim_cycles_gmean": gmean(
            by_class(samples, "cycles", "sim_cls").values()
        ),
        "sim_dram_bytes_gmean": gmean(
            by_class(samples, "dram_bytes", "sim_cls").values()
        ),
        "codegen_loc_total": float(sum(by_class(samples, "loc").values())),
        "verified_share": len(good) / len(samples) if samples else 0.0,
    }


@dataclass
class Layers:
    """Per-layer observations of a traced pass: name -> class -> values."""

    values: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    #: Host speed the next observations are reported at (the workload sets
    #: it after each calibration); applied to times and rates only.
    speed: float = 1.0

    def add(self, name: str, cls: str, value: float) -> None:
        unit = catalogue.PER_LAYER[name][0]
        if unit == "ms":
            value *= self.speed
        elif unit == "ktok/s":
            value /= self.speed
        self.values.setdefault(name, {}).setdefault(cls, []).append(float(value))

    def set(self, name: str, value: float) -> None:
        """A whole-run figure (catalogue kind ``value``)."""
        self.add(name, "", value)

    def merge(self, other: "Layers") -> None:
        for name, classes in other.values.items():
            for cls, values in classes.items():
                self.values.setdefault(name, {}).setdefault(cls, []).extend(values)

    def per_class(self, name: str) -> Dict[str, float]:
        return {c: median(v) for c, v in self.values.get(name, {}).items()}

    def combined(self, name: str, how: str) -> float:
        per_class = self.per_class(name)
        if not per_class:
            return 0.0
        if how == "gmean":
            return gmean(per_class.values())
        if how == "sum":
            return float(sum(per_class.values()))
        return median(per_class.values())


# ----------------------------------------------------------------------
# Forked children
# ----------------------------------------------------------------------
def in_children(fn: Callable, arg_lists: List[tuple], timeout: float = 150.0) -> list:
    """Run ``fn(*args)`` for each args in forked children, all at once.

    Each child inherits this process's imports (and nothing it has not
    done: the parent of a ``warm_disk.codegen`` or ``sweep_grid`` run
    never compiles).  The harness is single-threaded when it forks.
    Returns what each call returned, in order.
    """
    ctx = multiprocessing.get_context("fork")

    def body(conn, args) -> None:
        try:
            payload = ("ok", fn(*args))
        except BaseException as exc:  # reported to the parent, which raises
            payload = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(payload)
        conn.close()

    started = []
    for args in arg_lists:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=body, args=(child_conn, args))
        proc.start()
        child_conn.close()
        started.append((proc, parent_conn))
    results, failure = [], None
    for proc, conn in started:
        try:
            if failure is None and conn.poll(timeout):
                status, value = conn.recv()
                if status == "ok":
                    results.append(value)
                else:
                    failure = f"child running {fn.__name__} failed: {value}"
            elif failure is None:
                failure = f"child running {fn.__name__} gave no result in {timeout}s"
        finally:
            conn.close()
            proc.join(timeout=10.0 if failure is None else 0.1)
            if proc.is_alive():
                proc.kill()
                proc.join()
    if failure is not None:
        raise RuntimeError(failure)
    return results


def in_child(fn: Callable, *args):
    """Run ``fn(*args)`` in one forked child and return what it returns."""
    return in_children(fn, [args])[0]


# ----------------------------------------------------------------------
# Workload protocol
# ----------------------------------------------------------------------
class Workload:
    """One named workload: set-up, closed-loop rounds, traced rounds.

    ``run.py`` drives every workload the same way: ``setup`` (several
    times, for a steady ``setup_s``), then whole rounds of ``run_round``
    until the measured window is used.  A traced run alternates an
    untraced round with ``traced_round`` (the same requests with spans
    kept, followed by the layer probes), so tracing overhead is the
    difference of two figures taken seconds apart in one process.
    """

    name = ""
    #: Whose ``ru_maxrss`` is the work's: this process or its children.
    rss_children = False
    #: Every class is an equal share of the requests (round-robin).
    equal_classes = True
    #: Run a round's traced pass before its untraced one (for traffic that
    #: happens once and must fall into the pass that keeps spans).
    traced_first = False

    def __init__(self, seed: int, quick: bool, tracer: Tracer) -> None:
        self.seed = seed
        self.quick = quick
        self.tr = tracer
        #: Host speed for the samples taken next (see ``calibrate``).
        self.speed = 1.0
        #: Seconds spent calibrating (not part of any timed window).
        self.calibration_s = 0.0
        self.speeds: List[float] = []
        #: class -> summed layer ms of its replay (traced rounds only).
        self.layer_sums: Dict[str, List[float]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` made (directories, processes)."""

    def run_round(self, index: int) -> List[Sample]:
        raise NotImplementedError

    def traced_round(self, index: int, layers: Layers) -> List[Sample]:
        raise NotImplementedError

    def after_window(self) -> Dict[str, float]:
        """End-to-end figures taken once the timed window is over."""
        return {}

    def calibrate(self) -> float:
        """Measure the host's speed now; samples made next carry it."""
        started = time.perf_counter()
        self.speed = CALIBRATION_REFERENCE_MS / calibration_ms()
        self.calibration_s += time.perf_counter() - started
        self.speeds.append(self.speed)
        return self.speed

    def note_layer_sum(self, cls: str, total_ms: float, speed: float = 0.0) -> None:
        """Record a replay's summed layer time, at reference speed."""
        self.layer_sums.setdefault(cls, []).append(total_ms * (speed or self.speed))

    def request_order(self, names: List[str]) -> List[str]:
        """The seed-driven order in which a round visits its classes."""
        import random

        order = list(names)
        random.Random(self.seed).shuffle(order)
        return order


def remove_tree(path: str) -> None:
    """Delete a scratch directory this run made under ``bench/out``."""
    import shutil

    if os.path.commonpath([os.path.abspath(path), OUT]) != OUT:
        raise GuardError(f"refusing to delete {path!r}: not under bench/out")
    shutil.rmtree(path, ignore_errors=True)
