"""Cluster formation and leader election.

Robots within d_neighbor of each other are neighbors; clusters are the
connected components of the neighbor graph (transitive closure), and each
cluster elects its lowest-id active member as leader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

Position = tuple[float, float]


@dataclass(frozen=True)
class Cluster:
    members: tuple[int, ...]  # ascending
    leader: int | None = None
    active_members: tuple[int, ...] = ()
    all_stop: bool = False


@dataclass(frozen=True)
class ClusterPartition:
    clusters: tuple[Cluster, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for c in self.clusters:
            overlap = seen.intersection(c.members)
            if overlap:
                raise ValueError(f"robots {sorted(overlap)} appear in two clusters")
            seen.update(c.members)


def neighbor_sets(
    positions: dict[int, Position], d_neighbor: float
) -> dict[int, set[int]]:
    """B_i = all robots strictly closer than d_neighbor to robot i."""
    if d_neighbor <= 0:
        raise ValueError("d_neighbor must be positive")
    ids = sorted(positions)
    sets: dict[int, set[int]] = {i: set() for i in ids}
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            i, j = ids[a], ids[b]
            if math.dist(positions[i], positions[j]) < d_neighbor:
                sets[i].add(j)
                sets[j].add(i)
    return sets


class _UnionFind:
    def __init__(self, items: Iterable[int]) -> None:
        self.parent = {i: i for i in items}
        self.rank = {i: 0 for i in self.parent}

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.rank[ri] < self.rank[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        if self.rank[ri] == self.rank[rj]:
            self.rank[ri] += 1


def form_clusters(neighbors: dict[int, set[int]]) -> ClusterPartition:
    """Partition robots into connected components of the neighbor graph.

    Clusters come out sorted by smallest member id, members ascending.
    Asymmetric input (j in B_i but not i in B_j) indicates a stale snapshot
    and raises.
    """
    for i, bi in neighbors.items():
        for j in bi:
            if j not in neighbors or i not in neighbors[j]:
                raise ValueError(f"asymmetric neighbor sets: {i} -> {j}")
    uf = _UnionFind(neighbors)
    for i, bi in neighbors.items():
        for j in bi:
            uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in neighbors:
        groups.setdefault(uf.find(i), []).append(i)
    clusters = tuple(
        Cluster(members=tuple(sorted(g)))
        for g in sorted(groups.values(), key=min)
    )
    return ClusterPartition(clusters)


def elect_leaders(partition: ClusterPartition, active_ids: set[int]) -> ClusterPartition:
    """Pick each cluster's leader.

    Leader = lowest-id active member. A cluster with no active member gets
    its lowest-id member as leader and is marked all-stop.
    """
    out = []
    for c in partition.clusters:
        active = tuple(sorted(m for m in c.members if m in active_ids))
        if active:
            out.append(Cluster(c.members, active[0], active, all_stop=False))
        else:
            out.append(Cluster(c.members, min(c.members), (), all_stop=True))
    return ClusterPartition(tuple(out))
