"""Channel ids that are neither dense nor in list order.

The topology format accepts any distinct non-negative channel ids, and the
simulator numbers channels by their rank in id order.  A strictly
increasing relabelling with gaps, with the edge list shuffled, must leave
every run, flood and reception log as it was (logs read with the ids mapped
back), and a large id must cost no memory.
"""

from __future__ import annotations

import json
import tracemalloc

from hypothesis import given, settings, strategies as st

from hyperbft import protocol
from hyperbft.conditions import check_lcr_hyper
from hyperbft.formats import canonical_json
from hyperbft.generators import complete_p2p, random_hypergraph
from hyperbft.hypergraph import DirectedHypergraph, Hyperedge
from hyperbft.necessity import build_necessity_executions
from hyperbft.protocol import (
    ADVERSARY_NAMES,
    Engine,
    SplitPersonaAdversary,
    TrailUniverse,
    flood_records,
    make_adversary,
)


def relabelled(g: DirectedHypergraph, new_id: dict[int, int], order) -> DirectedHypergraph:
    """``g`` with channel e renamed ``new_id[e]`` and the edge list
    permuted by ``order``."""
    edges = [Hyperedge(new_id[e.id], e.head, e.tails) for e in g.edges]
    return DirectedHypergraph(g.n, [edges[i] for i in order])


def logs_with_ids(log: bytes, ids: dict[int, int]) -> bytes:
    """A reception log with every channel id of its trails renamed."""
    entries = json.loads(log)
    for entry in entries:
        entry[3] = [ids[e] for e in entry[3]]
    return canonical_json(entries).encode()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_relabelled_channel_ids_change_nothing(n, channels, seed, data) -> None:
    """Runs under every library adversary and fault set of size at most
    1, floods, and the necessity harness's outputs and reception logs are
    the same after the relabelling, logs with the new ids mapped back.  A
    split persona pinned channel by channel, keyed by each graph's own ids,
    gives the same runs and floods on both."""
    g = random_hypergraph(n, channels, seed, max_tail_size=2)
    gaps = data.draw(st.lists(st.integers(1, 1000), min_size=channels, max_size=channels))
    new_id = {e.id: sum(gaps[: i + 1]) for i, e in enumerate(sorted(g.edges, key=lambda e: e.id))}
    order = data.draw(st.permutations(range(channels)))
    h = relabelled(g, new_id, order)
    old_id = {v: k for k, v in new_id.items()}

    eg, eh = Engine(g, 1), Engine(h, 1)
    assert [tuple(old_id[e] for e in t) for t in eh.tu.trail_of] == eg.tu.trail_of
    inputs = dict(enumerate(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    gamma = [inputs[v] for v in range(n)]
    # an explicit persona per channel, keyed by each graph's own ids
    persona = data.draw(st.lists(st.integers(0, 1), min_size=channels, max_size=channels))
    pinned = (
        SplitPersonaAdversary(dict(zip(new_id, persona))),
        SplitPersonaAdversary({new_id[e]: b for e, b in zip(new_id, persona)}),
    )
    for faulty in [(), *((v,) for v in range(n))]:
        for name in ADVERSARY_NAMES if faulty else ("honest",):
            assert eh.run(faulty, inputs, name) == eg.run(faulty, inputs, name), (faulty, name)
            adversary = make_adversary(name)
            assert (
                flood_records(eh.tu, range(n), gamma, faulty, adversary).tolist()
                == flood_records(eg.tu, range(n), gamma, faulty, adversary).tolist()
            ), (faulty, name)
        assert eh.run(faulty, inputs, pinned[1]) == eg.run(faulty, inputs, pinned[0]), faulty
        assert (
            flood_records(eh.tu, range(n), gamma, faulty, pinned[1]).tolist()
            == flood_records(eg.tu, range(n), gamma, faulty, pinned[0]).tolist()
        ), faulty

    if check_lcr_hyper(g, 1).holds:
        return
    want, got = build_necessity_executions(g, 1), build_necessity_executions(h, 1)
    assert (got.fault_set, got.left_nodes, got.right_nodes, got.ok) == (
        want.fault_set, want.left_nodes, want.right_nodes, want.ok
    )
    for ew, eh_ in zip(want.executions, got.executions):
        assert (eh_.faulty, eh_.inputs, eh_.outputs) == (ew.faulty, ew.inputs, ew.outputs)
        assert eh_.logs.keys() == ew.logs.keys()
        for v, log in eh_.logs.items():
            assert logs_with_ids(log, old_id) == ew.logs[v], (ew.execution, v)


def _traced_peak(call) -> int:
    protocol._engine.cache_clear()   # build the engine inside the trace
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_memory_does_not_depend_on_channel_ids() -> None:
    """K3 with its last channel's id set to 10**7 runs through the engine
    and the necessity harness within 1 MiB of the traced peak of the
    dense-id K3; tables sized by the largest id took 172 and 410 MiB."""
    dense = complete_p2p(3)
    last = dense.edges[-1]
    sparse = DirectedHypergraph(3, (*dense.edges[:-1], Hyperedge(10**7, last.head, last.tails)))
    for g in (dense, sparse):
        hash(g), g.bit_of, g.head_edges(0)   # warm the graph's lazy tables
    calls = (
        lambda g: protocol.run_scenario(g, 1, [2], {0: 0, 1: 1, 2: 0}, "split_persona"),
        lambda g: build_necessity_executions(g, 1),
    )
    for call in calls:
        base = _traced_peak(lambda: call(dense))
        assert _traced_peak(lambda: call(sparse)) < base + (1 << 20)


def test_channel_ids_past_int64_reach_the_adversary() -> None:
    """A channel id of 2**64 runs like its dense copy, and a split persona
    pinned by that id reads it: its floods follow the pinned persona."""
    dense = complete_p2p(4)
    last = dense.edges[-1]
    big = DirectedHypergraph(4, (*dense.edges[:-1], Hyperedge(2**64, last.head, last.tails)))
    inputs = {0: 0, 1: 1, 2: 0, 3: 1}
    faulty = [last.head]
    for name in ADVERSARY_NAMES:
        assert protocol.run_scenario(big, 1, faulty, inputs, name) == protocol.run_scenario(
            dense, 1, faulty, inputs, name
        )
    tu_big, tu_dense = TrailUniverse(big), TrailUniverse(dense)
    floods = []
    for persona in (0, 1):
        pinned = SplitPersonaAdversary({2**64: persona})
        got = flood_records(tu_big, range(4), [0] * 4, faulty, pinned)
        pinned = SplitPersonaAdversary({last.id: persona})
        want = flood_records(tu_dense, range(4), [0] * 4, faulty, pinned)
        assert got.tolist() == want.tolist()
        floods.append(got.tolist())
    assert floods[0] != floods[1]
