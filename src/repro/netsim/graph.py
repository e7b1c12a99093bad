"""The topology graph: an insertion-ordered dict of dicts with BFS.

Routing and the placement search need an undirected adjacency
structure and unweighted shortest paths, nothing more.  Neighbours keep
their insertion order and :meth:`Graph.shortest_paths` lets the first
discovered parent win, so among equal-cost paths (two spines between the
same leaves) the choice is a pure function of the order the topology was
built in — which every per-seed digest depends on.
"""

from __future__ import annotations

from typing import Hashable, Iterator


class Graph:
    """Undirected, unweighted; nodes are any hashable key."""

    def __init__(self) -> None:
        self._adj: dict[Hashable, dict[Hashable, None]] = {}

    def add_node(self, n: Hashable) -> None:
        self._adj.setdefault(n, {})

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        self._adj.setdefault(a, {})[b] = None
        self._adj.setdefault(b, {})[a] = None

    def remove_edge(self, a: Hashable, b: Hashable) -> None:
        del self._adj[a][b]
        del self._adj[b][a]

    def remove_node(self, n: Hashable) -> None:
        for m in self._adj.pop(n):
            del self._adj[m][n]

    def neighbors(self, n: Hashable) -> Iterator[Hashable]:
        return iter(self._adj[n])

    def degree(self, n: Hashable) -> int:
        return len(self._adj[n])

    def has_node(self, n: Hashable) -> bool:
        return n in self._adj

    def has_edge(self, a: Hashable, b: Hashable) -> bool:
        return b in self._adj.get(a, ())

    __contains__ = has_node

    def __len__(self) -> int:
        return len(self._adj)

    def shortest_paths(self, src: Hashable) -> dict[Hashable, list]:
        """Every node reachable from ``src`` -> one shortest path to it
        (``src`` first, the node last), by level-by-level BFS."""
        paths = {src: [src]}
        level = [src]
        while level:
            nxt = []
            for v in level:
                for w in self._adj[v]:
                    if w not in paths:
                        paths[w] = paths[v] + [w]
                        nxt.append(w)
            level = nxt
        return paths

    def all_pairs_lengths(self) -> dict[Hashable, dict[Hashable, int]]:
        """node -> {reachable node -> hop count} (itself at 0)."""
        return {
            src: {dst: len(path) - 1 for dst, path in self.shortest_paths(src).items()}
            for src in self._adj
        }
