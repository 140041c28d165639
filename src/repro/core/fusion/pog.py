"""Partial order graph (POG) over fused index variables.

The POG is the ordering backbone of FuseFlow's cross-expression fusion
(Section 5): nodes are (unified) index variables; a directed edge ``a -> b``
constrains ``a`` to be iterated outside ``b``.  Edges come from three
sources, each tagged so cycle resolution can remove a tensor view's
constraints wholesale:

* per-tensor mode orders (concordant traversal of storage formats),
* user-scheduled dataflow orders of individual expressions,
* producer/consumer containment added during fusion.

Topological sorts of the POG are exactly the legal fused dataflow orders;
counting them reproduces the design-space sizes of Table 4.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterator, List, Sequence, Set, Tuple


class OrderConflictError(ValueError):
    """Raised when ordering constraints are unsatisfiable."""


class PartialOrderGraph:
    """Directed constraint graph over index variables."""

    def __init__(self) -> None:
        # index -> {successor: {"tags": set, "reason": str}}; indices and
        # successors both keep insertion order, which fixes the order in
        # which every algorithm below visits them.
        self._succ: Dict[str, Dict[str, Dict[str, Any]]] = {}

    def add_index(self, index: str) -> None:
        self._succ.setdefault(index, {})

    def add_constraint(self, outer: str, inner: str, tag: str, reason: str = "") -> None:
        """Require ``outer`` to precede ``inner``; ``tag`` groups edges."""
        if outer == inner:
            return
        self.add_index(outer)
        self.add_index(inner)
        edge = self._succ[outer].get(inner)
        if edge is not None:
            edge["tags"].add(tag)
        else:
            self._succ[outer][inner] = {"tags": {tag}, "reason": reason}

    @property
    def indices(self) -> List[str]:
        return list(self._succ)

    def _edges(self) -> List[Tuple[str, str]]:
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def _in_degrees(self) -> Dict[str, int]:
        degree = dict.fromkeys(self._succ, 0)
        for succ in self._succ.values():
            for v in succ:
                degree[v] += 1
        return degree

    def is_acyclic(self) -> bool:
        return not self.find_cycle()

    def find_cycle(self) -> List[Tuple[str, str]]:
        """Return the edges of one cycle, or [] if acyclic.

        Depth-first from each index in insertion order; the first edge back
        into the active path closes the cycle.
        """
        done: Set[str] = set()
        for root in self._succ:
            if root in done:
                continue
            path = [root]
            stack = [iter(self._succ[root])]
            while stack:
                for succ in stack[-1]:
                    if succ in path:
                        cycle = path[path.index(succ):] + [succ]
                        return list(zip(cycle, cycle[1:]))
                    if succ not in done:
                        path.append(succ)
                        stack.append(iter(self._succ[succ]))
                        break
                else:
                    stack.pop()
                    done.add(path.pop())
        return []

    def edge_tags(self, outer: str, inner: str) -> Set[str]:
        return set(self._succ[outer][inner]["tags"])

    def remove_tag(self, tag: str) -> int:
        """Drop every edge carrying only ``tag``; return edges removed."""
        removed = 0
        for u, v in self._edges():
            tags = self._succ[u][v]["tags"]
            tags.discard(tag)
            if not tags:
                del self._succ[u][v]
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Orders
    # ------------------------------------------------------------------
    def first_order(self, preference: Sequence[str] | None = None) -> List[str]:
        """One valid topological order, preferring ``preference`` rank."""
        if not self.is_acyclic():
            raise OrderConflictError(f"POG has a cycle: {self.find_cycle()}")
        rank = {idx: i for i, idx in enumerate(preference or [])}
        order: List[str] = []
        indegree = self._in_degrees()
        ready = sorted(
            (n for n, d in indegree.items() if d == 0),
            key=lambda n: rank.get(n, len(rank)),
        )
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in self._succ[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
            ready.sort(key=lambda n: rank.get(n, len(rank)))
        if len(order) != len(self._succ):
            raise OrderConflictError("cycle detected during topological sort")
        return order

    def all_orders(self, limit: int = 1000) -> Iterator[List[str]]:
        """Yield valid topological orders (up to ``limit``).

        Knuth and Szwarcfiter's algorithm ("A Structured Program to Generate
        All Topological Sorting Arrangements", IPL 2(6), 1974) over a deque
        of ready indices.  Callers take a prefix of the enumeration, so its
        order is part of the compiler's behaviour; ``tests/test_fusion.py``
        pins it.
        """
        if not self.is_acyclic():
            raise OrderConflictError(f"POG has a cycle: {self.find_cycle()}")
        count = self._in_degrees()
        ready = deque(n for n, d in count.items() if d == 0)
        bases: List[str] = []  # first index chosen at each position
        current: List[str] = []
        yielded = 0
        while True:
            if len(current) == len(count):
                if yielded >= limit:
                    return
                yield list(current)
                yielded += 1
                while current:
                    q = current.pop()
                    for succ in self._succ[q]:
                        count[succ] += 1
                    while ready and count[ready[-1]] > 0:
                        ready.pop()
                    # Rotate q to the front; once the position's first choice
                    # is back at the end, every choice there has been tried.
                    ready.appendleft(q)
                    if ready[-1] == bases[-1]:
                        bases.pop()
                    else:
                        break
            else:
                q = ready.pop()
                for succ in self._succ[q]:
                    count[succ] -= 1
                    if count[succ] == 0:
                        ready.append(succ)
                current.append(q)
                if len(bases) < len(current):
                    bases.append(q)
            if not bases:
                return

    def is_valid_order(self, order: Sequence[str]) -> bool:
        """Check that ``order`` respects every constraint."""
        pos = {idx: i for i, idx in enumerate(order)}
        if set(pos) != set(self._succ):
            return False
        return all(pos[u] < pos[v] for u, v in self._edges())

    def count_orders(self, cap: int = 10**9) -> int:
        """Count linear extensions exactly (bitmask DP), capped at ``cap``.

        Exponential in index count; fused ML regions have tens of indices at
        most, and the cap bounds the work as the paper caps its search space.
        """
        nodes = list(self._succ)
        n = len(nodes)
        if n == 0:
            return 1
        if n > 24:
            return cap
        index_of = {node: i for i, node in enumerate(nodes)}
        preds = [0] * n
        for u, v in self._edges():
            preds[index_of[v]] |= 1 << index_of[u]
        dp = [0] * (1 << n)
        dp[0] = 1
        for mask in range(1 << n):
            if dp[mask] == 0:
                continue
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                if preds[i] & ~mask:
                    continue
                dp[mask | bit] += dp[mask]
                if dp[mask | bit] > cap:
                    dp[mask | bit] = cap
        return min(dp[(1 << n) - 1], cap)
