"""Graph registry: fingerprint-keyed graph store with cached probes.

Structural probes (degree skew, sampled giant-component fraction,
diameter estimate) are what the planner routes on, and they cost BFS
sweeps — far cheaper than a CC run but far too expensive to redo per
request.  The registry computes them once per distinct graph content
and serves them from the entry afterwards.

Mutation and staleness
----------------------

Graphs are immutable by contract, and the registry now *enforces*
that: registration freezes the CSR arrays (``writeable=False``), and
the sanctioned way to change a graph is :meth:`GraphRegistry.mutate`,
which builds a successor entry under a new fingerprint and records
the insertion batch as delta lineage (``parent_fingerprint`` +
canonical inserted edges) for the incremental CC tier.

Because a determined client can still write through a view created
before registration, every ``id()``-memo hit in
:meth:`fingerprint_of` is additionally guarded by a cheap version
token (array sizes + strided content samples).  A token mismatch
means the arrays changed in place under a memoized fingerprint — the
old fingerprint's cached probes and results are silently wrong, so
the entry is quarantined: dropped from the registry and reported via
:meth:`drain_stale` so the service can invalidate its result cache.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..graph import properties
from ..graph.csr import CSRGraph
from ..graph.mutate import insert_edges, remove_edges
from .feedback import RouterFeedback
from .fingerprint import graph_fingerprint

__all__ = ["GraphProbes", "GraphEntry", "GraphRegistry", "probe_graph",
           "version_token"]

#: Max array elements sampled per array by :func:`version_token`.
_TOKEN_SAMPLES = 4096


def version_token(graph: CSRGraph) -> tuple:
    """Cheap content token for in-place-mutation detection.

    O(1) metadata plus a strided sample of at most ``4096`` elements
    per array — constant work per check, independent of graph size.
    Not a fingerprint: equal tokens do not prove equal content (a
    write that dodges every sampled position escapes), but any bulk
    in-place mutation flips it with overwhelming probability.  The
    hard guarantee comes from the registry freezing registered arrays;
    the token is the dirty check for writes that predate or evade the
    freeze.

    Out-of-core graphs (anything carrying a ``block_cache``) keep
    their indices on disk behind a read-only reader, so only the
    resident ``indptr`` is sampled; the header metadata stands in for
    the index bytes (sampling them would stream the whole file).
    """
    lazy = hasattr(graph, "block_cache")
    h = hashlib.blake2b(digest_size=8)
    arrays = (graph.indptr,) if lazy else (graph.indptr, graph.indices)
    for arr in arrays:
        stride = max(1, arr.size // _TOKEN_SAMPLES)
        h.update(np.ascontiguousarray(arr[::stride]).tobytes())
        if arr.size:
            h.update(arr[-1:].tobytes())
    if lazy:
        h.update(repr(graph.header).encode())
    return (graph.indptr.size, graph.indices.size, h.hexdigest())


def _freeze(graph: CSRGraph) -> None:
    """Best-effort write protection of the CSR arrays.

    Lazy on-disk indices have no ``flags`` — the file reader is
    read-only by construction, so there is nothing to freeze.
    """
    for arr in (graph.indptr, graph.indices):
        flags = getattr(arr, "flags", None)
        if flags is None:
            continue
        try:
            flags.writeable = False
        except ValueError:  # non-owning base array
            pass


def _as_edge_batch(pairs) -> tuple:
    """Normalize ``(src, dst)`` arrays or an ``(k, 2)`` array of pairs."""
    if isinstance(pairs, tuple) and len(pairs) == 2:
        src, dst = pairs
    else:
        arr = np.asarray(pairs)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                "edge batch must be a (src, dst) pair of arrays or an "
                "(k, 2) array of vertex pairs")
        src, dst = arr[:, 0], arr[:, 1]
    # Dtype and range checks live in canonical_edge_batch: casting
    # here would truncate float ids before they are seen.
    return src, dst


@dataclass(frozen=True)
class GraphProbes:
    """The structural facts the planner routes on."""

    num_vertices: int
    num_edges: int
    mean_degree: float
    skew_ratio: float
    top1pct_edge_share: float
    giant_fraction: float
    diameter: int


def probe_graph(graph: CSRGraph, *, giant_samples: int = 4096,
                diameter_sources: int = 4) -> GraphProbes:
    """Measure a graph's routing-relevant structure.

    Uses the sampled (hub-BFS) giant-fraction estimate and the
    double-sweep diameter lower bound — both linear-ish probes, no
    scipy materialization.
    """
    stats = properties.degree_stats(graph)
    return GraphProbes(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        mean_degree=stats.mean,
        skew_ratio=stats.skew_ratio,
        top1pct_edge_share=stats.top1pct_edge_share,
        giant_fraction=properties.sampled_giant_fraction(
            graph, samples=giant_samples),
        diameter=properties.estimate_diameter(
            graph, num_sources=diameter_sources),
    )


class GraphEntry:
    """One registered graph: content fingerprint + lazily-cached probes.

    Entries created by :meth:`GraphRegistry.mutate` additionally carry
    delta lineage: ``parent_fingerprint`` names the predecessor and
    ``delta_src``/``delta_dst`` hold the canonical batch of undirected
    edges whose insertion turns the predecessor into this graph.
    Lineage is only recorded for pure insertions (removals are not
    delta-maintainable); ``version`` counts mutation steps from the
    lineage root.
    """

    __slots__ = ("fingerprint", "graph", "name", "token", "version",
                 "parent_fingerprint", "delta_src", "delta_dst",
                 "_probes", "probe_computations")

    def __init__(self, fingerprint: str, graph: CSRGraph,
                 name: str = "") -> None:
        self.fingerprint = fingerprint
        self.graph = graph
        self.name = name
        self.token = version_token(graph)
        self.version = 0
        self.parent_fingerprint: str | None = None
        self.delta_src: np.ndarray | None = None
        self.delta_dst: np.ndarray | None = None
        self._probes: GraphProbes | None = None
        self.probe_computations = 0

    @property
    def probes(self) -> GraphProbes:
        """Structural probes, computed on first access and cached."""
        if self._probes is None:
            self._probes = probe_graph(self.graph)
            self.probe_computations += 1
        return self._probes

    def __repr__(self) -> str:
        label = self.name or self.fingerprint
        return (f"GraphEntry({label}, n={self.graph.num_vertices}, "
                f"m={self.graph.num_edges})")


class GraphRegistry:
    """Fingerprint-keyed graph store.

    ``register`` is idempotent on content: submitting the same graph
    (or an equal copy) twice returns the same entry, so its cached
    probes — and any cached results keyed by the fingerprint — are
    reused.  A per-instance ``id()`` memo skips re-hashing the arrays
    when the *same object* is submitted repeatedly; it is only
    consulted for objects the registry holds strongly, so id reuse
    after garbage collection cannot alias, and every memo hit is
    verified against the object's cheap :func:`version_token` so an
    in-place mutation can never serve a stale fingerprint.  Two tiers
    of memo exist: the permanent one for each entry's own graph
    object, and a bounded LRU of recently-seen *equal copies* — a
    client that constructs a fresh-but-equal graph object and then
    resubmits that same object per request pays the full array hash
    only on first sight, not on every request.  The copy memo keeps a
    strong reference to each memoized object for as long as its id is
    memoized, preserving the id-reuse safety argument.

    :meth:`mutate` is the sanctioned mutation path: it derives a
    successor graph, registers it under its own fingerprint with delta
    lineage, and re-points the entry's name at the successor — old
    entries stay addressable by fingerprint (their cached results
    remain valid for the old content).
    """

    #: Bound on the recently-seen equal-copy memo (strong refs held).
    COPY_MEMO_CAPACITY = 64

    def __init__(self) -> None:
        self._by_fingerprint: dict[str, GraphEntry] = {}
        self._by_name: dict[str, str] = {}
        self._id_memo: dict[int, str] = {}
        self._copy_memo: OrderedDict[
            int, tuple[CSRGraph, str, tuple]] = OrderedDict()
        #: Full array hashes actually computed (testable: copies are
        #: hashed once, not once per request).
        self.fingerprint_computations = 0
        #: Quarantined fingerprints awaiting :meth:`drain_stale`.
        self._stale: list[str] = []
        #: In-place mutations detected over the registry's lifetime.
        self.stale_detections = 0
        #: Measured-cost correction posteriors, keyed by fingerprint
        #: like the cached probes — and invalidated with them: a
        #: quarantined or superseded fingerprint's corrections describe
        #: content that no longer receives traffic.
        self.feedback = RouterFeedback()

    def register(self, graph: CSRGraph, *, name: str = "") -> GraphEntry:
        """Add a graph (idempotent); returns its entry.

        ``name`` attaches a human alias usable with :meth:`get`.
        Re-registering the same content under a new name just adds the
        alias.  Registration freezes the graph's arrays — mutate via
        :meth:`mutate`, not in place.
        """
        fp = self.fingerprint_of(graph)
        entry = self._by_fingerprint.get(fp)
        if entry is None:
            entry = self._add_entry(fp, graph, name)
        if name:
            existing = self._by_name.get(name)
            if existing is not None and existing != fp:
                raise ValueError(
                    f"name {name!r} already registered for a different "
                    f"graph (fingerprint {existing})")
            self._by_name[name] = fp
            if not entry.name:
                entry.name = name
        return entry

    def register_path(self, path, *, name: str = "",
                      resident_bytes: int | None = None,
                      mode: str = "mmap") -> GraphEntry:
        """Register a blocked on-disk graph without materializing it.

        Opens ``path`` (an ``.rbcsr`` file written by
        :func:`repro.storage.write_blocked`) as a
        :class:`~repro.storage.BlockedGraph` whose edge blocks stay on
        disk behind a cache bounded by ``resident_bytes``, and
        registers it like any other graph — the streaming fingerprint
        matches the resident graph's, so cached results transfer.
        """
        from ..storage import BlockedGraph

        graph = BlockedGraph.open(path, resident_bytes=resident_bytes,
                                  mode=mode)
        return self.register(graph, name=name)

    def _add_entry(self, fp: str, graph: CSRGraph,
                   name: str) -> GraphEntry:
        _freeze(graph)
        entry = GraphEntry(fp, graph, name)
        self._by_fingerprint[fp] = entry
        self._id_memo[id(graph)] = fp
        return entry

    def mutate(self, key: str, *, insert=None, remove=None,
               name: str | None = None) -> GraphEntry:
        """Apply an edge mutation; returns the successor entry.

        ``insert``/``remove`` are undirected edge batches — a
        ``(src, dst)`` pair of arrays or an ``(k, 2)`` array of vertex
        pairs; removal applies first.  The predecessor's name (or the
        explicit ``name``) re-points to the successor, so key-based
        requests transparently see the mutated graph; the predecessor
        stays addressable by fingerprint.

        A pure-insertion mutation records delta lineage on the
        successor (predecessor fingerprint + the canonical batch of
        genuinely-new edges), which is what lets the serving layer
        delta-update cached results instead of recomputing.  Any
        removal breaks the lineage: deletions are served by full
        recompute.  A no-op mutation (nothing removed, nothing new to
        insert) returns the predecessor entry unchanged.
        """
        entry = self.get(key)
        graph = entry.graph
        if hasattr(graph, "block_cache"):
            raise ValueError(
                "out-of-core graphs are immutable on disk; materialize "
                "and re-register before mutating")
        removed = False
        ins_src = ins_dst = None
        if remove is not None:
            rs, rd = _as_edge_batch(remove)
            successor = remove_edges(graph, rs, rd)
            removed = successor is not graph
            graph = successor
        if insert is not None:
            is_, id_ = _as_edge_batch(insert)
            graph, lo, hi = insert_edges(graph, is_, id_)
            if lo.size and not removed:
                ins_src, ins_dst = lo, hi
        if graph is entry.graph:
            return entry
        fp = self.fingerprint_of(graph)
        successor = self._by_fingerprint.get(fp)
        if successor is None:
            successor = self._add_entry(fp, graph, "")
            if ins_src is not None:
                successor.parent_fingerprint = entry.fingerprint
                successor.delta_src = ins_src
                successor.delta_dst = ins_dst
            successor.version = entry.version + 1
            if entry._probes is not None:
                # Inherit the predecessor's probes with the exact new
                # edge count: a batch of b edges cannot move skew /
                # giant fraction / diameter estimates meaningfully,
                # and re-probing per mutation would cost BFS sweeps —
                # the planner routes on the inherited approximation.
                n = graph.num_vertices
                successor._probes = replace(
                    entry._probes, num_edges=graph.num_edges,
                    mean_degree=graph.num_edges / max(n, 1))
            # The successor's content starts from the clean feedback
            # prior by construction (new fingerprint, no cells); the
            # predecessor's corrections describe content the name no
            # longer points at, so they are dropped with the lineage
            # step rather than left to linger in the LRU.
            self.feedback.invalidate_fingerprint(entry.fingerprint)
        alias = name if name is not None else entry.name
        if alias:
            self._by_name[alias] = fp
            if not successor.name:
                successor.name = alias
        return successor

    def fingerprint_of(self, graph: CSRGraph) -> str:
        """Content fingerprint, memoized for recently-seen objects.

        Permanent memo for each entry's own graph; bounded LRU memo
        for equal copies.  Both are consulted only while the registry
        holds the object strongly, so a recycled ``id()`` can never
        alias to a dead graph's fingerprint — and both verify the
        object's :func:`version_token` on every hit, so a graph
        mutated in place is re-hashed (and, for registered entries,
        quarantined) instead of served its stale fingerprint.
        """
        fp = self._id_memo.get(id(graph))
        if fp is not None:
            held = self._by_fingerprint.get(fp)
            if held is not None and held.graph is graph:
                if held.token == version_token(graph):
                    return fp
                # The entry's own arrays changed under it: every
                # cached fact keyed by this fingerprint (probes,
                # results, plans) describes content that no longer
                # exists.  Quarantine the entry and fall through to
                # re-hash the current content.
                self._quarantine(held)
        memo = self._copy_memo.get(id(graph))
        if memo is not None and memo[0] is graph:
            if memo[2] == version_token(graph):
                self._copy_memo.move_to_end(id(graph))
                return memo[1]
            del self._copy_memo[id(graph)]
        fp = graph_fingerprint(graph)
        self.fingerprint_computations += 1
        self._copy_memo[id(graph)] = (graph, fp, version_token(graph))
        self._copy_memo.move_to_end(id(graph))
        while len(self._copy_memo) > self.COPY_MEMO_CAPACITY:
            self._copy_memo.popitem(last=False)
        return fp

    def _quarantine(self, entry: GraphEntry) -> None:
        """Drop an entry whose content mutated under its fingerprint."""
        self._by_fingerprint.pop(entry.fingerprint, None)
        self._id_memo.pop(id(entry.graph), None)
        for alias in [a for a, f in self._by_name.items()
                      if f == entry.fingerprint]:
            del self._by_name[alias]
        self._stale.append(entry.fingerprint)
        self.stale_detections += 1
        self.feedback.invalidate_fingerprint(entry.fingerprint)

    def drain_stale(self) -> list[str]:
        """Fingerprints quarantined since the last drain (then cleared).

        The serving layer polls this to invalidate cached results and
        memoized plans keyed by dead fingerprints.
        """
        stale, self._stale = self._stale, []
        return stale

    def get(self, key: str) -> GraphEntry:
        """Look up by name or fingerprint; KeyError when absent."""
        fp = self._by_name.get(key, key)
        try:
            return self._by_fingerprint[fp]
        except KeyError:
            raise KeyError(
                f"no registered graph named or fingerprinted {key!r}"
            ) from None

    def entries(self) -> list[GraphEntry]:
        """All registered entries, in registration order."""
        return list(self._by_fingerprint.values())

    def __len__(self) -> int:
        return len(self._by_fingerprint)

    def __contains__(self, key: str) -> bool:
        return key in self._by_fingerprint or key in self._by_name

    @property
    def probe_computations(self) -> int:
        """Total structural-probe evaluations across all entries."""
        return sum(e.probe_computations
                   for e in self._by_fingerprint.values())
