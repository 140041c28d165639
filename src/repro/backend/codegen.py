"""Code-generating backend: one compiled Python kernel per fusion region.

Instead of walking the region graph node by node (assembling a dict of
input streams from the edge table, looking up the node's stats and
dispatching on the representation for every node on every execution),
this backend walks the graph **once**, emits a single straight-line
Python function for the region — streams collapsed into locals, dispatch
unrolled — compiles it with :func:`compile`/``exec``, and caches the
artifact.

Two emission tiers share this machinery, and differ only in the primitive
method each node becomes one call to:

* **token** — ``process`` (the executable specification the differential
  suites compare against) over ``(kind, payload)`` tuple lists: the
  ``interp`` loop of :func:`~repro.comal.functional.run_functional`
  unrolled.  It pays no numpy per-call overhead, which is all that matters
  when streams are tiny (gpt3's blocked streams).
* **columnar** — ``process_columnar`` over
  :class:`~repro.sam.token.TokenStream` columns (``kinds`` int8 / ``data``
  float64 / ``objs`` escape hatch): the ``columnar`` loop unrolled.

Neither tier re-expresses a primitive: what they buy is the unrolled
dispatch (input-dict assembly from the edge table, stats lookup, port
plumbing).  Every well-formed region can be emitted in either tier (the
base-class ``process_columnar`` bridges through ``process``), so nothing
ever falls back to an interpreter.  Both tiers are bit-exact against the
interpreters: identical streams, per-node statistics, result tensors, and
therefore identical timed metrics (the timed engine reads only stream
lengths, stats, and node metadata).  Because they are interchangeable,
:func:`select_artifact` picks the tier a region runs under *before*
anything is emitted — token for blocked payloads and for inputs below
:data:`DEFAULT_SMALL_STREAM_CUTOFF` (numpy dispatch overhead dominates
short arrays), columnar otherwise — so ``backend=codegen`` wins on every
model regardless of stream length and a region pays emission and
``compile()`` only for the tier it runs.

Three cache levels:

* per-graph (weak, validated by topological-order identity — the same
  idiom as the timed engine's plan cache): repeated executions of one
  graph reuse its compiled kernel;
* per-source in memory (keyed by the SHA-256 of the emitted source):
  structurally identical regions share one code object and pay
  ``compile()`` once per process.  Emitted source is *name-free* — tensor
  names and primitives reach a kernel through its exec globals, never as
  literals (``_Emitter._name`` / ``_bind``) — so the layers of a stack,
  which differ only in the tensors they touch, are structurally identical
  in this sense;
* per-source on disk (same key, in the session's
  :class:`~repro.driver.diskcache.DiskCache` directory when it has one):
  a process that never compiled this source loads the marshalled code
  object instead of calling ``compile()``.  Emission still runs and *is*
  the address, so a kernel is only ever served for source this build just
  emitted from this graph.

Exceptions raised inside a generated kernel are re-raised with the node id
and region name appended (protocol errors keep their type and message so
``pytest.raises(..., match=...)`` assertions hold under
``FUSEFLOW_BACKEND=codegen``); emitted sources are registered with
:mod:`linecache` so tracebacks show real kernel lines, not ``<string>``.
"""

from __future__ import annotations

import hashlib
import linecache
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sam.graph import SAMGraph
from ..sam.primitives.base import ExecutionContext, NodeStats
from ..sam.token import StreamProtocolError, check_stream

__all__ = [
    "CodegenError",
    "RegionArtifact",
    "artifact_for",
    "cached_artifacts",
    "codegen_cache_info",
    "clear_codegen_caches",
    "select_artifact",
    "try_run_codegen",
]


class CodegenError(RuntimeError):
    """A generated kernel failed for a non-protocol reason."""


_TIERS = ("token", "columnar")

#: Payload-count cutoff under which a run uses the token-tier kernel
#: (:func:`select_artifact`): numpy call overhead dominates short arrays,
#: so plain Python loops win there.  256 separates the golden-scale sae
#: regions (~120-150 payloads per region, faster on the token tier) from
#: the gcn / graphsage ones (~380-670, faster columnar); blocked gpt3
#: routes to the token tier separately, via the blocked-payload probe,
#: regardless of size.  ``0`` disables the decision, blocked payloads
#: included, so every region runs columnar; a value no input reaches
#: sends every run to the token tier — how the ``force_tier`` test
#: fixture pins each tier in isolation.
DEFAULT_SMALL_STREAM_CUTOFF = 256


@dataclass
class RegionArtifact:
    """The compiled form of one region under the codegen backend.

    Attributes
    ----------
    region : str
        Name of the region graph this artifact was emitted from.
    tier : str
        Emission tier the artifact was built with (``token``/``columnar``).
    source : str
        The emitted Python source.
    loc : int
        Emitted lines of code.
    node_count : int
        Nodes of the region graph.
    emit_seconds : float
        Wall time spent emitting the source.
    compile_seconds : float
        Wall time spent obtaining the code object and ``exec``-ing it:
        ``compile()`` when ``origin`` is ``compiled``, the validated disk
        load when it is ``disk``, 0 on an in-memory hit.
    origin : str
        Where the code object came from: ``compiled`` (a real
        ``compile()``), ``memory`` (the per-source cache — another region
        already obtained it) or ``disk`` (the store's kernel file).
    fn : callable
        The compiled kernel.
    sha : str
        SHA-256 hex digest of ``source`` (the code-cache key).
    runs : int
        Executions of this kernel (for ``--profile`` amortization).
    run_seconds : float
        Total wall time spent inside this kernel across ``runs``.
    """

    region: str
    tier: str = "token"
    source: str = ""
    loc: int = 0
    node_count: int = 0
    emit_seconds: float = 0.0
    compile_seconds: float = 0.0
    origin: str = "compiled"
    fn: Optional[Callable] = None
    sha: str = ""
    runs: int = 0
    run_seconds: float = 0.0

    @property
    def code_cached(self) -> bool:
        """True when the code object came from the in-memory source cache."""
        return self.origin == "memory"


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------

@dataclass
class _GraphEntry:
    """What the per-graph cache holds for one region graph.

    ``order`` is the graph's topological order list; its identity doubles
    as a structure-version tag (SAMGraph rebuilds it on mutation).
    ``probe`` is the graph's :func:`_probe_spec` — it depends on the graph
    alone, so the tier is chosen from it before anything is emitted.
    ``tiers`` maps emission tier -> artifact.  ``retentions`` is a list of
    ``(sha, finalizer)`` pairs pinning source-cache entries (and their
    linecache registrations) for as long as the graph lives — see
    :func:`_retain_sha_locked`.  ``store`` is the kernel store of the
    session that compiled the graph (:func:`select_artifact`), kept here
    so a tier first emitted at run time finds it too.
    """

    order: List[str]
    probe: Tuple[Tuple[str, ...], int]
    tiers: Dict[str, RegionArtifact] = field(default_factory=dict)
    retentions: List[Tuple[str, Any]] = field(default_factory=list)
    store: Any = None


#: graph -> :class:`_GraphEntry`.  Weak keys bound this cache by graph
#: lifetime.
_GRAPH_ARTIFACTS: "weakref.WeakKeyDictionary[SAMGraph, _GraphEntry]" = (
    weakref.WeakKeyDictionary()
)

#: source sha -> number of live graph retentions.  When the last graph
#: referencing a source is collected (or its artifacts are invalidated by
#: structural mutation), the entry drops to zero and the source is purged
#: from both the code cache and linecache, so long sweep/serve processes
#: do not grow linecache without bound.
_SHA_REFS: Dict[str, int] = {}

#: Releases requested by a gc finalizer that fired while another frame on
#: this thread held the (non-reentrant) cache lock; drained by the next
#: locked section.
_PENDING_SHA_RELEASES: List[str] = []

#: source sha -> compiled code object, shared across graphs.  A bounded
#: LRU: unlike the weak per-graph cache, nothing ties these entries to a
#: live object, so an unbounded dict leaks every distinct emitted source
#: for the life of a serve process.
_CODE_CACHE: "OrderedDict[str, Any]" = OrderedDict()

#: Entry cap for the cross-graph source cache.
CODE_CACHE_LIMIT = 256

#: Guards the caches and counters: the threaded serve front end compiles
#: from many threads, and unguarded ``dict`` updates lose counts (and can
#: tear the LRU ordering).
_CACHE_LOCK = threading.Lock()

_COUNTERS = {
    "artifact_hits": 0,
    "artifact_misses": 0,
    "code_hits": 0,
    "code_misses": 0,
    "code_disk_hits": 0,
    "code_disk_writes": 0,
    "code_evictions": 0,
    "token_dispatches": 0,
}


def codegen_cache_info() -> Dict[str, int]:
    """Snapshot of the artifact/code cache counters (for ``--profile``).

    ``code_misses`` counts in-memory misses; of those, ``code_disk_hits``
    were loaded from a kernel store instead of compiled, and
    ``code_disk_writes`` were compiled and written back to one.
    Includes ``code_entries``/``code_limit`` so a long-lived process can
    observe the bounded LRU's occupancy alongside the hit counters, and
    ``code_files``/``retained_sources`` so linecache growth stays
    observable (generated sources are unregistered when the last graph
    holding them is collected or evicted).
    """
    with _CACHE_LOCK:
        _drain_pending_releases_locked()
        info = dict(_COUNTERS)
        info["code_entries"] = len(_CODE_CACHE)
        info["code_limit"] = CODE_CACHE_LIMIT
        info["code_files"] = sum(
            _kernel_filename(sha) in linecache.cache for sha in _CODE_CACHE
        )
        info["retained_sources"] = len(_SHA_REFS)
    return info


def cached_artifacts(graph) -> Dict[str, "RegionArtifact"]:
    """Already-emitted artifacts for ``graph``, keyed by tier.

    Pure lookup — nothing is emitted or compiled — so profilers can
    inspect which tiers actually ran (``runs``/``run_seconds``) without
    perturbing the caches.

    Parameters
    ----------
    graph:
        The region :class:`~repro.sam.graph.SAMGraph` to look up.
    """
    with _CACHE_LOCK:
        entry = _GRAPH_ARTIFACTS.get(graph)
        return dict(entry.tiers) if entry is not None else {}


def clear_codegen_caches() -> None:
    """Drop compiled artifacts and reset counters (tests only)."""
    with _CACHE_LOCK:
        for entry in _GRAPH_ARTIFACTS.values():
            for _sha, finalizer in entry.retentions:
                finalizer.detach()
        _GRAPH_ARTIFACTS.clear()
        _SHA_REFS.clear()
        _PENDING_SHA_RELEASES.clear()
        for sha in list(_CODE_CACHE):
            _purge_code_entry_locked(sha)
        for key in _COUNTERS:
            _COUNTERS[key] = 0


def _kernel_filename(sha: str) -> str:
    """The linecache name of a source.

    Its hash alone, never a region's name: one code object serves every
    region that emits this source.
    """
    return f"<fuseflow-codegen {sha[:12]}>"


def _purge_code_entry_locked(sha: str) -> None:
    """Drop one source-cache entry and its linecache registration."""
    _CODE_CACHE.pop(sha, None)
    linecache.cache.pop(_kernel_filename(sha), None)


def _release_sha_locked(sha: str) -> None:
    count = _SHA_REFS.get(sha)
    if count is None:
        return
    if count <= 1:
        del _SHA_REFS[sha]
        _purge_code_entry_locked(sha)
    else:
        _SHA_REFS[sha] = count - 1


def _drain_pending_releases_locked() -> None:
    while _PENDING_SHA_RELEASES:
        _release_sha_locked(_PENDING_SHA_RELEASES.pop())


def _on_graph_collected(sha: str) -> None:
    # weakref.finalize callback: a graph holding this source died.  gc can
    # run this re-entrantly on a thread that already holds the
    # (non-reentrant) cache lock, so never block here — defer instead.
    if _CACHE_LOCK.acquire(blocking=False):
        try:
            _drain_pending_releases_locked()
            _release_sha_locked(sha)
        finally:
            _CACHE_LOCK.release()
    else:
        _PENDING_SHA_RELEASES.append(sha)


def _retain_sha_locked(graph: SAMGraph, sha: str, retentions: List) -> None:
    """Pin a source-cache entry to ``graph``'s lifetime."""
    _SHA_REFS[sha] = _SHA_REFS.get(sha, 0) + 1
    finalizer = weakref.finalize(graph, _on_graph_collected, sha)
    finalizer.atexit = False
    retentions.append((sha, finalizer))


# ----------------------------------------------------------------------
# Shared kernel runtime (exec globals)
# ----------------------------------------------------------------------


def _dbg_check(stream, node_id: str, port_name: str) -> None:
    """Per-stream protocol validation, worded like the interpreter's."""
    if len(stream):
        try:
            check_stream(stream)
        except StreamProtocolError as exc:
            raise StreamProtocolError(
                f"node {node_id} port {port_name!r}: {exc}"
            ) from exc


#: Names every generated kernel can reference.  Per-graph runtime objects
#: (primitives, tensor names) are layered on top per exec.
_SHARED_GLOBALS: Dict[str, Any] = {
    "_Ctx": ExecutionContext,
    "_dbg": _dbg_check,
}


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------


class _Emitter:
    """Walks one region graph and emits its kernel source.

    The base class is the **token** tier: every node is one call to its
    primitive's own ``process`` — the executable specification — with the
    interpreter's per-node dispatch (input-dict assembly from the edge
    table, stats lookup, port plumbing) unrolled into straight-line code.
    """

    #: The primitive method every node is emitted as a call to.
    method = "process"

    def __init__(self, graph: SAMGraph, order: List[str]) -> None:
        self.graph = graph
        self.order = order
        self.lines: List[str] = []
        # Runtime objects the source cannot express literally — and the
        # tensor names it must not (see _name) — injected into the exec
        # globals per graph (identifiers are deterministic given the
        # source, so sharing the code object across graphs is sound).
        self.env: Dict[str, Any] = {}
        # tensor name -> identifier bound to it in env.
        self.names: Dict[str, str] = {}
        # (node_id, port) -> local variable holding the stream.
        self.var: Dict[Tuple[str, str], str] = {}

    # -- infrastructure -------------------------------------------------
    def w(self, line: str = "") -> None:
        self.lines.append("    " + line if line else "")

    def _prelude(self) -> None:
        # One ExecutionContext per run, shared by every primitive call;
        # binding and results are the kernel's own dicts (no copy), so
        # writers land their tensors where the caller reads them.
        self.w(
            "_ctx = _Ctx(None, scratchpad_bytes=scratchpad_bytes, "
            "debug_streams=debug_streams)"
        )
        self.w("_ctx.binding = binding")
        self.w("_ctx.results = results")

    def emit(self) -> str:
        self.lines.append(
            "def _region_kernel(binding, stats, results, "
            "scratchpad_bytes, debug_streams, _cur):"
        )
        self._prelude()
        for i, node_id in enumerate(self.order):
            node = self.graph.nodes[node_id]
            prim = node.prim
            self.w()
            desc = prim.describe()
            name = getattr(prim, "tensor_name", None)
            if name is not None:
                desc = desc.replace(f"({name}", f"({self._name(name)}", 1)
            self.w(f"# -- {node_id}: {desc} --")
            self.w(f"_cur[0] = {node_id!r}")
            self.w(f"_st = stats[{node_id!r}]")
            outs = [f"s{i}_{p}" for p in prim.out_ports]
            self._emit_prim_call(i, node_id, node, prim)
            for port, var in zip(prim.out_ports, outs):
                self.var[(node_id, port)] = var
            self.w("if debug_streams:")
            for port, var in zip(prim.out_ports, outs):
                self.w(f"    _dbg({var}, {node_id!r}, {port!r})")
        self.w()
        self.w("return {")
        for node_id in self.order:
            node = self.graph.nodes[node_id]
            for port in node.prim.out_ports:
                var = self.var[(node_id, port)]
                self.w(f"    ({node_id!r}, {port!r}): {var},")
        self.w("}")
        return "\n".join(self.lines) + "\n"

    def _in(self, node, port: str) -> str:
        src = node.inputs[port]
        return self.var[(src.node_id, src.port)]

    def _bind(self, name: str, obj: Any) -> str:
        self.env[name] = obj
        return name

    def _name(self, tensor_name: str) -> str:
        """Identifier standing for ``tensor_name`` in the emitted source.

        Every tensor name the source mentions goes through here, so it
        reaches the kernel through ``env`` and never as a literal:
        regions that differ only in which tensors they touch (the layers
        of a stack, the Q/K/V projections inside one) emit identical
        source and share one code object.  Identifiers are numbered by
        first appearance, which depends on the graph's structure alone.
        """
        ident = self.names.get(tensor_name)
        if ident is None:
            ident = self.names[tensor_name] = self._bind(
                f"_T{len(self.names)}", tensor_name
            )
        return ident

    def _emit_prim_call(self, i, node_id, node, prim) -> None:
        """Emit one node as a call to the bound primitive's ``method``.

        The primitive performs the exact interpreter computation *and*
        stats accounting; the call is the node's whole block.
        """
        pname = self._bind(f"_P{i}", prim)
        ins = ", ".join(
            f"{port!r}: {self._in(node, port)}" for port in prim.in_ports
        )
        self.w(f"_ctx.current_node = {node_id!r}")
        self.w(f"_po{i} = {pname}.{self.method}({{{ins}}}, _ctx, _st)")
        for port in prim.out_ports:
            self.w(f"s{i}_{port} = _po{i}[{port!r}]")


class _ColumnarEmitter(_Emitter):
    """The **columnar** tier: the same unrolling, over TokenStream columns.

    Every node is one call to its primitive's ``process_columnar`` — the
    ``columnar`` interpreter's loop unrolled exactly as the token tier
    unrolls ``interp``'s — so each primitive's vectorized semantics exist
    once, in ``sam/primitives/``.
    """

    method = "process_columnar"


# ----------------------------------------------------------------------
# Compilation and execution
# ----------------------------------------------------------------------


def _probe_spec(graph: SAMGraph, order: List[str]) -> Tuple[Tuple[str, ...], int]:
    """Tensor names + constant token floor used to size a run's input.

    The adaptive dispatcher estimates how much work a run carries by
    summing the nnz of the tensors the region reads plus the length of
    any replayed source streams; both are knowable without executing.
    """
    names: Dict[str, None] = {}
    base = 0
    for node_id in order:
        prim = graph.nodes[node_id].prim
        if prim.kind in ("scan", "array", "locate"):
            names[prim.tensor_name] = None
        elif prim.kind == "source":
            base += len(prim.stream)
    return tuple(names), base


def _compile_artifact(
    graph: SAMGraph, order: List[str], tier: str, store: Any
) -> RegionArtifact:
    """Emit ``graph`` and obtain its kernel: memory, then disk, then compile.

    ``store`` is the disk level — ``get_kernel``/``put_kernel`` by source
    sha, a :class:`~repro.driver.diskcache.DiskCache` — or ``None``.
    """
    started = time.perf_counter()
    emitter_cls = _ColumnarEmitter if tier == "columnar" else _Emitter
    emitter = emitter_cls(graph, order)
    source = emitter.emit()
    emit_seconds = time.perf_counter() - started
    sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
    filename = _kernel_filename(sha)
    compile_started = time.perf_counter()
    origin = "memory"
    with _CACHE_LOCK:
        code = _CODE_CACHE.get(sha)
        if code is not None:
            _COUNTERS["code_hits"] += 1
            _CODE_CACHE.move_to_end(sha)
    if code is None:
        # The disk load and compile() run outside the lock (they are the
        # slow part); the re-insert below keeps the cache single-valued
        # under races.
        code = store.get_kernel(sha) if store is not None else None
        origin = "disk" if code is not None else "compiled"
        written = False
        if code is None:
            code = compile(source, filename, "exec")
            written = store is not None and store.put_kernel(sha, code)
        with _CACHE_LOCK:
            _COUNTERS["code_disk_hits"] += origin == "disk"
            _COUNTERS["code_disk_writes"] += written
            incumbent = _CODE_CACHE.get(sha)
            if incumbent is not None:
                code = incumbent
                _CODE_CACHE.move_to_end(sha)
            else:
                _CODE_CACHE[sha] = code
                # Register the source so tracebacks out of the kernel show
                # real lines instead of an opaque <string> frame.
                linecache.cache[filename] = (
                    len(source),
                    None,
                    source.splitlines(True),
                    filename,
                )
                while len(_CODE_CACHE) > CODE_CACHE_LIMIT:
                    oldest = next(iter(_CODE_CACHE))
                    _purge_code_entry_locked(oldest)
                    _COUNTERS["code_evictions"] += 1
            _COUNTERS["code_misses"] += 1
    namespace = dict(_SHARED_GLOBALS)
    namespace.update(emitter.env)
    exec(code, namespace)
    return RegionArtifact(
        region=graph.name,
        tier=tier,
        source=source,
        loc=source.count("\n"),
        node_count=len(order),
        emit_seconds=emit_seconds,
        compile_seconds=(
            0.0
            if origin == "memory"
            else time.perf_counter() - compile_started
        ),
        origin=origin,
        fn=namespace["_region_kernel"],
        sha=sha,
    )


def artifact_for(graph: SAMGraph, tier: str = "columnar") -> RegionArtifact:
    """The compiled :class:`RegionArtifact` for ``graph``, cached per tier.

    Parameters
    ----------
    graph:
        A lowered region graph.  Artifacts are cached weakly per graph
        (one slot per emission tier) and invalidated when the graph's
        topological order is rebuilt (i.e. on structural mutation).
    tier:
        ``"token"`` or ``"columnar"``.  Callers that want the tier a run
        would pick use :func:`select_artifact` instead.

    Returns
    -------
    RegionArtifact
        The tier's artifact; every well-formed region emits in both.
    """
    if tier not in _TIERS:
        raise ValueError(
            f"unknown codegen tier {tier!r}; expected one of {_TIERS}"
        )
    graph.ensure_validated()
    order = graph.topological_order()
    with _CACHE_LOCK:
        _drain_pending_releases_locked()
        entry = _graph_entry_locked(graph, order)
        incumbent = entry.tiers.get(tier)
        if incumbent is not None:
            _COUNTERS["artifact_hits"] += 1
            return incumbent
        _COUNTERS["artifact_misses"] += 1
    artifact = _compile_artifact(graph, order, tier, entry.store)
    with _CACHE_LOCK:
        entry = _graph_entry_locked(graph, order)
        incumbent = entry.tiers.get(tier)
        if incumbent is not None:
            return incumbent
        entry.tiers[tier] = artifact
        _retain_sha_locked(graph, artifact.sha, entry.retentions)
    return artifact


def _graph_entry_locked(graph: SAMGraph, order: List[str]) -> _GraphEntry:
    """The per-graph cache entry for ``graph`` as currently structured."""
    entry = _GRAPH_ARTIFACTS.get(graph)
    if entry is None or entry.order is not order:
        if entry is not None:
            # Structural mutation: the old tiers' sources no longer
            # correspond to this graph — drop their linecache pins.
            for sha, finalizer in entry.retentions:
                if finalizer.detach():
                    _release_sha_locked(sha)
        entry = _GraphEntry(
            order,
            _probe_spec(graph, order),
            store=entry.store if entry is not None else None,
        )
        _GRAPH_ARTIFACTS[graph] = entry
    return entry


def _probe_size(probe: Tuple[Tuple[str, ...], int], binding: Dict[str, Any]):
    """Size a run from its binding: (estimated input tokens, blocked payloads).

    ``blocked`` is True when any probed tensor carries multi-dimensional
    payloads (e.g. gpt3's block-sparse matrices): those ride the ``objs``
    escape hatch through every columnar kernel, so the token tier's
    specialized loops are the faster choice regardless of stream length.
    """
    names, size = probe
    blocked = False
    for name in names:
        values = getattr(binding.get(name), "values", None)
        if values is not None:
            size += int(values.size)
            if values.ndim > 1:
                blocked = True
    return size, blocked


def select_artifact(
    graph: SAMGraph,
    *,
    binding: Optional[Dict[str, Any]] = None,
    decls: Optional[Dict[str, Any]] = None,
    store: Any = None,
) -> RegionArtifact:
    """The kernel ``graph`` should run, its tier chosen *before* emitting.

    The one tier decision, shared by the compile-time prewarm and the
    run, so a region pays emission and ``compile()`` for the tier it will
    execute and no other.  Blocked payloads escape every columnar kernel
    and short streams drown in numpy call overhead; either way the token
    tier's plain loops win (:data:`DEFAULT_SMALL_STREAM_CUTOFF`).

    Parameters
    ----------
    graph:
        A lowered region graph.
    binding:
        Run time: token when a tensor the region reads is *bound* with
        blocked values (``values.ndim > 1``), or when the bound tensors
        plus replayed source streams carry fewer than
        :data:`DEFAULT_SMALL_STREAM_CUTOFF` payloads in total.
    decls:
        Compile time (no binding yet): token when a tensor the region
        reads is *declared* blocked (``decls[name].fmt.is_blocked``).
        Stream length is unknown until a binding exists, so size never
        decides here.
    store:
        The compiling session's kernel store (its
        :class:`~repro.driver.diskcache.DiskCache`), consulted by sha
        before ``compile()`` and written back after one.  Remembered per
        graph, so the run-time call — which knows no session — uses it
        for a tier it emits late.

    Returns
    -------
    RegionArtifact
        The chosen tier's artifact (emitted now if it was not cached).
    """
    graph.ensure_validated()
    with _CACHE_LOCK:
        entry = _graph_entry_locked(graph, graph.topological_order())
        if store is not None:
            entry.store = store
        probe = entry.probe
    tier = "columnar"
    cutoff = DEFAULT_SMALL_STREAM_CUTOFF
    if not cutoff:
        pass
    elif binding is not None:
        size, blocked = _probe_size(probe, binding)
        if blocked or size < cutoff:
            tier = "token"
            with _CACHE_LOCK:
                _COUNTERS["token_dispatches"] += 1
    elif decls is not None and any(
        decl is not None and decl.fmt.is_blocked
        for decl in map(decls.get, probe[0])
    ):
        tier = "token"
    return artifact_for(graph, tier)


def try_run_codegen(
    graph: SAMGraph,
    binding: Dict[str, Any],
    scratchpad_bytes: int,
    debug_streams: bool,
):
    """Execute ``graph`` through its generated kernel.

    Parameters
    ----------
    graph, binding, scratchpad_bytes, debug_streams:
        As for :func:`repro.comal.functional.run_functional` (memoization
        is handled by the caller).

    Returns
    -------
    FunctionalResult
        Streams, stats and results, bit-exact against the interpreters.

    Raises
    ------
    StreamProtocolError
        Protocol violations, re-raised with node id + region context
        appended (type and original message preserved).
    KeyError
        Unbound tensors, likewise annotated.
    CodegenError
        Any other failure inside the generated kernel.
    """
    from ..comal.functional import FunctionalResult

    artifact = select_artifact(graph, binding=binding)
    order = graph.topological_order()
    stats = {node_id: NodeStats() for node_id in order}
    results: Dict[str, Any] = {}
    cursor = ["?"]
    run_started = time.perf_counter()
    try:
        streams = artifact.fn(
            binding, stats, results, scratchpad_bytes, debug_streams, cursor
        )
    except StreamProtocolError as exc:
        raise StreamProtocolError(
            f"{exc} [codegen kernel, region {graph.name!r}, node {cursor[0]}]"
        ) from exc
    except KeyError as exc:
        detail = exc.args[0] if exc.args else exc
        raise KeyError(
            f"{detail} [codegen kernel, region {graph.name!r}, "
            f"node {cursor[0]}]"
        ) from exc
    except Exception as exc:
        raise CodegenError(
            f"generated kernel for region {graph.name!r} failed at node "
            f"{cursor[0]}: {type(exc).__name__}: {exc}"
        ) from exc
    artifact.runs += 1
    artifact.run_seconds += time.perf_counter() - run_started
    result = FunctionalResult()
    result.order = order
    result.streams = streams
    result.stats = stats
    result.results = results
    return result
