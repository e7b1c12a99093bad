"""``repro.netsim.graph.Graph`` against a reference BFS written here.

The tie-break is part of the contract: among equal-cost paths the first
discovered parent wins, with neighbours visited in the order their edges
were added (equal-cost leaf/spine routes — and so every per-seed digest —
depend on it).
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.netsim import Graph


class _Reference:
    """The same graph kept as plain ordered adjacency lists."""

    def __init__(self) -> None:
        self.adj: dict[int, list[int]] = {}

    def add_node(self, n):
        self.adj.setdefault(n, [])

    def add_edge(self, a, b):
        for x, y in ((a, b), (b, a)):
            self.add_node(x)
            if y not in self.adj[x]:
                self.adj[x].append(y)

    def remove_edge(self, a, b):
        self.adj[a].remove(b)
        self.adj[b].remove(a)

    def remove_node(self, n):
        for m in self.adj.pop(n):
            self.adj[m].remove(n)

    def bfs(self, src) -> tuple[dict[int, int], dict[int, int]]:
        """(parent, distance) of every node reachable from ``src``."""
        parent, dist = {}, {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in self.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
        return parent, dist

    def next_hops(self, src) -> dict[int, int]:
        parent, _ = self.bfs(src)
        hops = {}
        for dst in parent:
            at = dst
            while parent[at] != src:
                at = parent[at]
            hops[dst] = at
        return hops


def _check(g: Graph, ref: _Reference) -> None:
    assert len(g) == len(ref.adj)
    lengths = g.all_pairs_lengths()
    assert set(lengths) == set(ref.adj)
    for src in ref.adj:
        assert src in g and g.has_node(src)
        assert list(g.neighbors(src)) == ref.adj[src]
        assert g.degree(src) == len(ref.adj[src])
        _, dist = ref.bfs(src)
        assert lengths[src] == dist
        paths = g.shortest_paths(src)
        assert {d: p[1] for d, p in paths.items() if d != src} == ref.next_hops(src)
        for dst, path in paths.items():
            assert path[0] == src and path[-1] == dst and len(path) == dist[dst] + 1
            assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


@pytest.mark.parametrize("seed", range(12))
def test_random_edit_sequences_match_reference_bfs(seed):
    rng = random.Random(seed)
    g, ref = Graph(), _Reference()
    for step in range(120):
        nodes = sorted(ref.adj)
        edges = [(a, b) for a in nodes for b in ref.adj[a] if a < b]
        roll = rng.random()
        if roll < 0.15 or len(nodes) < 2:
            n = rng.randrange(40)
            g.add_node(n)
            ref.add_node(n)
        elif roll < 0.70:
            a, b = rng.sample(range(40), 2)  # may introduce new nodes
            g.add_edge(a, b)
            ref.add_edge(a, b)
        elif roll < 0.90 and edges:
            a, b = rng.choice(edges)
            if rng.random() < 0.5:
                a, b = b, a
            g.remove_edge(a, b)
            ref.remove_edge(a, b)
            assert not g.has_edge(a, b) and not g.has_edge(b, a)
        else:
            n = rng.choice(nodes)
            g.remove_node(n)
            ref.remove_node(n)
            assert n not in g and not g.has_edge(n, nodes[0])
        if step % 10 == 9:
            _check(g, ref)
    _check(g, ref)


def test_first_discovered_parent_wins_between_equal_cost_paths():
    g = Graph()
    # leaf 0 -- spines 10, 11 -- leaf 1; spine 11's uplink was wired first
    for a, b in ((0, 11), (0, 10), (10, 1), (11, 1)):
        g.add_edge(a, b)
    assert g.shortest_paths(0)[1] == [0, 11, 1]
    g.remove_edge(0, 11)
    g.add_edge(0, 11)  # re-added: now last in 0's neighbour order
    assert g.shortest_paths(0)[1] == [0, 10, 1]


def test_unreachable_nodes_are_absent_not_infinite():
    g = Graph()
    g.add_edge(1, 2)
    g.add_node(3)
    assert g.shortest_paths(1) == {1: [1], 2: [1, 2]}
    assert g.all_pairs_lengths() == {1: {1: 0, 2: 1}, 2: {2: 0, 1: 1}, 3: {3: 0}}
