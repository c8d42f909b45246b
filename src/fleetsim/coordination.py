"""Cluster formation and leader election.

Robots within d_neighbor of each other are neighbors; clusters are the
connected components of the neighbor graph (transitive closure), and each
cluster elects its lowest-id active member as leader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def form_clusters(neighbors: dict[int, set[int]]) -> ClusterPartition:
    """Partition robots into connected components of the neighbor graph.

    ``neighbors`` is symmetric (j in B_i exactly when i in B_j), as
    ``neighbor_sets`` builds it. Clusters come out sorted by smallest member
    id, members ascending.
    """
    clusters = []
    seen: set[int] = set()
    # a component is first reached from its smallest member
    for root in sorted(neighbors):
        if root in seen:
            continue
        component, frontier = {root}, [root]
        while frontier:
            reached = neighbors[frontier.pop()] - component
            component |= reached
            frontier.extend(reached)
        seen |= component
        clusters.append(Cluster(members=tuple(sorted(component))))
    return ClusterPartition(tuple(clusters))


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
