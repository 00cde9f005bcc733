"""Component-merge deltas: what a batch of insertions did to the labels.

The incremental tier's observable output is not a labels array (that
is bit-identical to a from-scratch run, by contract) but the *merge
delta*: which components were absorbed into which.  Downstream
consumers — cache maintenance, change feeds, the serving metrics —
only need this summary, which is O(merges), not O(n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..instrument.counters import OpCounters

__all__ = ["MergeDelta", "DeltaResult"]


@dataclass(frozen=True)
class MergeDelta:
    """Summary of one applied insertion batch.

    ``absorbed[i]`` is an old component label that no longer exists;
    ``into[i]`` is the label of the component that swallowed it (always
    the minimum label over the merged group, per the LP minimum
    convention — so ``into`` values are themselves surviving labels,
    never absorbed ones).  ``edges`` counts the canonical new
    undirected edges applied, ``links``/``hops`` the union-find work
    they cost (the same quantities :func:`charge_union` charges), and
    ``relabeled`` the vertices whose label actually changed.
    """

    absorbed: np.ndarray
    into: np.ndarray
    edges: int
    links: int
    hops: int
    relabeled: int

    @property
    def num_merges(self) -> int:
        """Distinct components that disappeared."""
        return int(self.absorbed.size)

    def as_dict(self) -> dict:
        """JSON-friendly summary (for CCResult.extras / reports)."""
        return {
            "num_merges": self.num_merges,
            "edges": self.edges,
            "links": self.links,
            "hops": self.hops,
            "relabeled": self.relabeled,
        }

    def __repr__(self) -> str:
        return (f"MergeDelta(merges={self.num_merges}, "
                f"edges={self.edges}, relabeled={self.relabeled})")


@dataclass
class DeltaResult:
    """Labels after a delta update, plus the delta and its charged cost.

    ``labels`` is bit-identical to what a from-scratch run of the
    seeding method on the successor graph would return.  ``counters``
    follows the shared union accounting recipe
    (:func:`repro.baselines.disjoint_set.charge_union`), so delta cost
    is apples-to-apples with full runs under the cost model.
    """

    labels: np.ndarray
    delta: MergeDelta
    counters: OpCounters = field(default_factory=OpCounters)
