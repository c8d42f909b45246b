import pytest
from hypothesis import given, strategies as st

from fleetsim.coordination import (
    Cluster,
    ClusterPartition,
    elect_leaders,
    form_clusters,
    neighbor_sets,
)


class TestNeighborSets:
    def test_strictly_closer_than_threshold(self):
        positions = {0: (0.0, 0.0), 1: (3.0, 0.0), 2: (5.0, 0.0)}
        sets = neighbor_sets(positions, 3.0)
        # exactly d_neighbor apart is NOT a neighbor
        assert sets == {0: set(), 1: {2}, 2: {1}}

    def test_symmetry(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (10.0, 0.0)}
        sets = neighbor_sets(positions, 3.0)
        for i, bi in sets.items():
            for j in bi:
                assert i in sets[j]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            neighbor_sets({0: (0.0, 0.0)}, 0.0)

    def test_empty_and_singleton(self):
        assert neighbor_sets({}, 1.0) == {}
        assert neighbor_sets({5: (1.0, 1.0)}, 1.0) == {5: set()}


class TestFormClusters:
    def test_transitive_chain_becomes_one_cluster(self):
        # 0-1 and 1-2 are neighbors, 0-2 are not: still one cluster
        neighbors = {0: {1}, 1: {0, 2}, 2: {1}, 3: set()}
        part = form_clusters(neighbors)
        assert [c.members for c in part.clusters] == [(0, 1, 2), (3,)]

    def test_sorted_by_smallest_member(self):
        neighbors = {7: set(), 2: {9}, 9: {2}, 4: set()}
        part = form_clusters(neighbors)
        assert [c.members for c in part.clusters] == [(2, 9), (4,), (7,)]

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            form_clusters({0: {1}, 1: set()})
        with pytest.raises(ValueError, match="asymmetric"):
            form_clusters({0: {1}})

    def test_overlapping_partition_rejected(self):
        with pytest.raises(ValueError, match="two clusters"):
            ClusterPartition((Cluster((0, 1)), Cluster((1, 2))))

    @given(st.dictionaries(st.integers(0, 12), st.booleans(), min_size=1, max_size=13),
           st.integers(0, 1000))
    def test_partition_property(self, members, seed):
        import random

        rng = random.Random(seed)
        ids = sorted(members)
        positions = {i: (rng.uniform(0, 10), rng.uniform(0, 10)) for i in ids}
        sets = neighbor_sets(positions, 3.0)
        part = form_clusters(sets)
        seen = [m for c in part.clusters for m in c.members]
        assert sorted(seen) == ids  # every robot in exactly one cluster
        assert [c.members[0] for c in part.clusters] == sorted(
            c.members[0] for c in part.clusters)
        cluster_of = {m: k for k, c in enumerate(part.clusters) for m in c.members}
        for i, bi in sets.items():
            # no neighbor pair spans two clusters
            assert all(cluster_of[j] == cluster_of[i] for j in bi)
        for c in part.clusters:
            assert c.members == tuple(sorted(c.members))
            # connected: growing by neighbors from one member reaches them all
            reached = {c.members[0]}
            while True:
                grown = reached.union(*(sets[m] for m in reached))
                if grown == reached:
                    break
                reached = grown
            assert reached == set(c.members)


class TestElectLeaders:
    def test_lowest_active_id_by_default(self):
        part = form_clusters({0: {1}, 1: {0}, 2: set()})
        out = elect_leaders(part, active_ids={1, 2})
        first, second = out.clusters
        assert first.leader == 1 and first.active_members == (1,)
        assert not first.all_stop
        assert second.leader == 2 and not second.all_stop

    def test_no_active_members_marks_all_stop(self):
        part = form_clusters({0: {1}, 1: {0}})
        out = elect_leaders(part, active_ids=set())
        c = out.clusters[0]
        assert c.all_stop and c.leader == 0 and c.active_members == ()

    def test_inactive_members_never_lead_active_cluster(self):
        part = form_clusters({0: {1}, 1: {0}})
        out = elect_leaders(part, active_ids={1})
        assert out.clusters[0].leader == 1
