from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from hyperbft.conditions import count_disjoint_Uv_paths, propagates
from hyperbft.generators import complete_p2p, random_hypergraph, random_p2p
from hyperbft.hypergraph import DirectedHypergraph
from hyperbft.paths import canonical_path, exists_disjoint_packing, max_disjoint_paths_bits

from oracles import brute_force_disjoint_paths, brute_force_propagates, max_disjoint_paths_network


def test_single_arc() -> None:
    g = DirectedHypergraph.from_edge_tuples(2, [(0, (1,))])
    assert count_disjoint_Uv_paths(g, {0}, 1) == 1
    assert count_disjoint_Uv_paths(g, {1}, 0) == 0


def test_diamond_two_disjoint_routes() -> None:
    # 0 -> {1,2} -> 3 gives two internally disjoint routes
    g = DirectedHypergraph.from_edge_tuples(4, [(0, (1, 2)), (1, (3,)), (2, (3,))])
    assert count_disjoint_Uv_paths(g, {0}, 3) == 1  # both routes start at node 0
    assert count_disjoint_Uv_paths(g, {1, 2}, 3) == 2


def test_trivial_membership_path_counts() -> None:
    g = DirectedHypergraph.from_edge_tuples(3, [(0, (2,)), (1, (2,))])
    assert count_disjoint_Uv_paths(g, {0, 1, 2}, 2) == 3
    assert count_disjoint_Uv_paths(g, {2}, 2) == 1


def test_excluded_nodes_cut_routes() -> None:
    g = DirectedHypergraph.from_edge_tuples(4, [(0, (1,)), (1, (3,)), (0, (2,)), (2, (3,))])
    assert count_disjoint_Uv_paths(g, {0}, 3) == 1
    assert count_disjoint_Uv_paths(g, {0}, 3, excluded={1}) == 1
    assert count_disjoint_Uv_paths(g, {0}, 3, excluded={1, 2}) == 0
    assert count_disjoint_Uv_paths(g, {0}, 3, excluded={3}) == 0


def test_complete_graph_packing() -> None:
    g = complete_p2p(5)
    assert count_disjoint_Uv_paths(g, {0, 1, 2, 3}, 4) == 4


def test_propagation_threshold() -> None:
    g = complete_p2p(4)
    assert propagates(g, {0, 1, 2}, {3}, f=2)
    assert not propagates(g, {0, 1, 2}, {3}, f=3)
    assert propagates(g, {0}, set(), f=9)  # no targets


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_matches_brute_force_on_digraphs(n: int, arcs: int, seed: int, data) -> None:
    g = random_p2p(n, arcs, seed)
    srcs = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
    )
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    excl = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2))
    assert count_disjoint_Uv_paths(g, srcs, target, excl) == brute_force_disjoint_paths(
        g, srcs, target, excl
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_matches_brute_force_on_hypergraphs(n: int, m: int, seed: int, data) -> None:
    g = random_hypergraph(n, m, seed)
    srcs = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
    )
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    f = data.draw(st.integers(min_value=0, max_value=2))
    assert count_disjoint_Uv_paths(g, srcs, target) == brute_force_disjoint_paths(
        g, srcs, target
    )
    targets = {v for v in range(n) if v % 2 == 0}
    assert propagates(g, srcs, targets, f) == brute_force_propagates(g, srcs, targets, f)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_bitmask_max_flow_matches_the_network_oracle(n: int, data) -> None:
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    adj = tuple(data.draw(st.lists(masks, min_size=n, max_size=n), label="adj"))
    target = data.draw(st.integers(min_value=0, max_value=n - 1), label="target")
    sources = data.draw(masks, label="sources") & ~(1 << target)
    removed = data.draw(masks, label="removed")
    uncapped = data.draw(masks, label="uncapped")
    cap = data.draw(st.sampled_from([None, 1, 2, 3]), label="cap")
    args = (adj, n, sources, target, removed, uncapped, cap)
    assert max_disjoint_paths_bits(*args) == max_disjoint_paths_network(*args)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.data())
def test_direct_arc_start_matches_the_network_oracle(n: int, data) -> None:
    # Each source gets an arc into the target with probability 1/2, so the
    # direct arcs alone often reach cap, fall just short of it, or are absent.
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    target = data.draw(st.integers(min_value=0, max_value=n - 1), label="target")
    sources = data.draw(masks, label="sources") & ~(1 << target)
    adj = list(data.draw(st.lists(masks, min_size=n, max_size=n), label="adj"))
    for i in range(n):
        if sources >> i & 1:
            if data.draw(st.booleans(), label=f"direct {i}"):
                adj[i] |= 1 << target
            else:
                adj[i] &= ~(1 << target)
    removed = data.draw(masks, label="removed")
    uncapped = data.draw(masks, label="uncapped")
    cap = data.draw(st.sampled_from([None, 0, 1, 2, 3]), label="cap")
    args = (tuple(adj), n, sources, target, removed, uncapped, cap)
    assert max_disjoint_paths_bits(*args) == max_disjoint_paths_network(*args)


def test_direct_arc_start_fixed_cases() -> None:
    # An uncapped source 0 with a direct arc to 3 and detours via 1 and 2.
    adj = (0b1110, 0b1000, 0b1000, 0)
    for cap in (None, 3, 4):
        assert max_disjoint_paths_bits(adj, 4, 0b1, 3, 0, 0b1, cap) == 3
        assert max_disjoint_paths_network(adj, 4, 0b1, 3, 0, 0b1, cap) == 3
    # The same source capped carries one path, its direct arc.
    assert max_disjoint_paths_bits(adj, 4, 0b1, 3) == 1
    assert max_disjoint_paths_bits(adj, 4, 0b1, 3, 0, 0b1, 0) == 0
    # A capped source's direct arc fills it: source 1 reaches 3 only via 0.
    adj = (0b1100, 0b0001, 0b1000, 0)
    assert max_disjoint_paths_bits(adj, 4, 0b11, 3) == 1
    # Sources 0, 1 and 2 all have direct arcs to 3; 0 also reaches 3 via 4.
    adj = (0b11000, 0b01000, 0b01000, 0, 0b01000)
    for cap in (0, 1, 2, 3):
        assert max_disjoint_paths_bits(adj, 5, 0b111, 3, 0, 0, cap) == cap
    assert max_disjoint_paths_bits(adj, 5, 0b111, 3, 0, 0, 4) == 3
    assert max_disjoint_paths_bits(adj, 5, 0b111, 3, 0, 0b1, 4) == 4
    assert max_disjoint_paths_network(adj, 5, 0b111, 3, 0, 0b1, 4) == 4


def test_augmenting_path_walks_back_through_a_saturated_node() -> None:
    # The first augmenting path a-x-i-j-t is the shorter one; the second,
    # from b, enters j, cancels i->j, walks back through i and cancels x->i
    # so that x can reroute via y-z: two disjoint paths, b-w-w-w-j-t and
    # a-x-y-z-t.  Nodes: a0 b1 x2 i3 j4 y5 z6 t7 w8 w9 w10.
    arcs = {0: [2], 1: [8], 2: [3, 5], 3: [4], 4: [7], 5: [6], 6: [7],
            8: [9], 9: [10], 10: [4]}
    adj = tuple(sum(1 << j for j in arcs.get(i, ())) for i in range(11))
    assert max_disjoint_paths_bits(adj, 11, 0b11, 7) == 2
    assert max_disjoint_paths_network(adj, 11, 0b11, 7) == 2


def test_canonical_path_is_shortest_and_lexicographic() -> None:
    # two length-2 routes from 0 to 3: edge ids (0,2) and (1,3); ties pick the former
    g = DirectedHypergraph.from_edge_tuples(
        4, [(0, (1,)), (0, (2,)), (1, (3,)), (2, (3,)), (3, (0,))]
    )
    assert canonical_path(g, 0, 3) == (0, 2)
    assert canonical_path(g, 0, 0) == ()
    assert canonical_path(g, 1, 2) == (2, 4, 1)


def test_canonical_path_unreachable() -> None:
    g = DirectedHypergraph.from_edge_tuples(3, [(0, (1,))])
    assert canonical_path(g, 1, 0) is None
    assert canonical_path(g, 0, 2) is None


def test_canonical_path_prefers_smaller_edge_ids_on_ties() -> None:
    g = DirectedHypergraph.from_edge_tuples(2, [(0, (1,)), (0, (1,))])
    assert canonical_path(g, 0, 1) == (0,)


def test_exists_disjoint_packing_basics() -> None:
    assert exists_disjoint_packing([], 0)
    assert not exists_disjoint_packing([], 1)
    assert exists_disjoint_packing([0b01, 0b10], 2)
    assert not exists_disjoint_packing([0b01, 0b011], 2)
    assert exists_disjoint_packing([0b001, 0b010, 0b100, 0b110], 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=255), max_size=8), st.integers(1, 4))
def test_packing_agrees_with_exhaustive_search(masks: list[int], k: int) -> None:
    import itertools

    def exhaustive() -> bool:
        uniq = sorted(set(masks))
        for combo in itertools.combinations(uniq, k):
            used = 0
            for m in combo:
                if used & m:
                    break
                used |= m
            else:
                return True
        return False

    assert exists_disjoint_packing(masks, k) == exhaustive()
