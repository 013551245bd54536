"""Expected results computed apart from the program.

Nothing here calls a hyperbft algorithm: graphs are read only through their
channels (``g.n``, ``g.edges`` with ``head`` and ``tails``) and through the
plain fields of the reports the program returns.  Each ``*_ok`` function
returns True when one op's output matches what the benchmark expects.
"""

from __future__ import annotations

import itertools


def underlying_adjacency(g) -> dict[int, set[int]]:
    """The undirected simple graph behind a hypergraph: u and v are
    neighbours when one of them heads a channel the other receives."""
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for e in g.edges:
        for w in e.tails:
            adj[e.head].add(w)
            adj[w].add(e.head)
    return adj


def connected_without(adj: dict[int, set[int]], removed) -> bool:
    """Whether the graph stays connected once ``removed`` is deleted
    (a graph with at most one node left counts as connected)."""
    rest = [v for v in adj if v not in removed]
    if len(rest) <= 1:
        return True
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def is_complete(adj: dict[int, set[int]]) -> bool:
    n = len(adj)
    return all(len(adj[v]) == n - 1 for v in adj)


def k_connected(adj: dict[int, set[int]], k: int) -> bool:
    """More than k nodes, and connected after deleting any k-1 of them."""
    if len(adj) <= k:
        return False
    return all(
        connected_without(adj, set(cut)) for cut in itertools.combinations(adj, k - 1)
    )


def undirected_f1_holds(g) -> bool:
    """The condition for an undirected hypergraph at f=1 with n > 3, where
    the triple-cover clause is vacuous: the underlying graph is complete or
    3-connected."""
    if g.n <= 3:
        raise ValueError("the closed form needs n > 3f = 3")
    adj = underlying_adjacency(g)
    return is_complete(adj) or k_connected(adj, 3)


def local_broadcast_f1_holds(g) -> bool:
    """The condition for a bidirectional local-broadcast graph at f=1:
    minimum degree at least 2 and 2-connected."""
    adj = underlying_adjacency(g)
    return min(len(a) for a in adj.values()) >= 2 and k_connected(adj, 2)


def light_split_count(g) -> int:
    """Split graphs the checker visits on a passing graph at f=1: one for the
    empty fault set and, per node v heading d channels, 1 + 2^(d-1) for the
    fault set {v} (copy-swapped duplicates skipped)."""
    heads = [0] * g.n
    for e in g.edges:
        heads[e.head] += 1
    return 1 + sum(1 + (1 << max(d - 1, 0)) for d in heads)


def trail_count(g) -> int:
    """Simple forwarding trails of a graph: channel sequences in which each
    channel is headed by a receiver of the previous one and no node
    transmits twice."""
    head_edges: dict[int, list] = {v: [] for v in range(g.n)}
    for e in g.edges:
        head_edges[e.head].append(e)
    total = 0
    stack = [(e, 1 << e.head) for e in g.edges]
    while stack:
        e, used = stack.pop()
        total += 1
        for w in e.tails:
            if used >> w & 1:
                continue
            for e2 in head_edges[w]:
                stack.append((e2, used | 1 << w))
    return total


# ---------------------------------------------------------------------------
# per-op checks


def crossval_ok(result, expected: bool) -> bool:
    """cross_validate_reduction on an undirected graph: both verdicts match
    the closed form and the program reports agreement."""
    return (
        result.general == expected
        and result.reduced == expected
        and result.agree is True
    )


def check_json_ok(doc: dict, expected: bool, f: int) -> bool:
    """The canonical JSON of a condition report: the verdict matches, and a
    witness (with a fault set of at most f nodes) is present exactly when
    the condition fails."""
    if doc.get("holds") is not expected or doc.get("f") != f:
        return False
    violation = doc.get("violation")
    if expected:
        return violation is None
    return violation is not None and len(violation["fault_set"]) <= f


def sweep_run_ok(result, n: int, fault_set, inputs: dict[int, int]) -> bool:
    """One simulator run judged from its outputs: termination (one phase per
    fault set of size <= 1 and an output at every honest node), agreement
    among honest outputs, and validity (the output is an honest input)."""
    honest = [v for v in range(n) if v not in fault_set]
    phase_sets = sorted(tuple(ph.fault_set) for ph in result.phases)
    if phase_sets != sorted([()] + [(v,) for v in range(n)]):
        return False
    outputs = dict(result.outputs)
    if sorted(outputs) != honest:
        return False
    values = {outputs[v] for v in honest}
    return len(values) == 1 and values <= {inputs[v] for v in honest}


def necessity_ok(rep, f: int, violation) -> bool:
    """The three executions built for a violating graph: E1 has honest
    inputs 0 and E2 honest inputs 1; no execution has more than f faulty
    nodes and E3's are the witness's fault set; honest L-side nodes read the
    same bytes in E1 and E3, R-side nodes in E2 and E3; E3 ends with 0 on
    the L side and 1 on the R side; both sides are non-empty."""
    sh = violation.split
    origin = dict(sh.origin)
    left = sorted({origin[v] for v in violation.partition.left if v not in sh.f_prime})
    right = sorted({origin[v] for v in violation.partition.right if v not in sh.f_prime})
    if not left or not right:
        return False
    if list(rep.left_nodes) != left or list(rep.right_nodes) != right:
        return False
    e1, e2, e3 = rep.executions
    if any(b != 0 for _, b in e1.inputs) or any(b != 1 for _, b in e2.inputs):
        return False
    if any(len(e.faulty) > f for e in (e1, e2, e3)):
        return False
    if set(e3.faulty) != set(violation.fault_set):
        return False
    for v in left:
        if v not in e1.logs or v not in e3.logs or e1.logs[v] != e3.logs[v]:
            return False
    for v in right:
        if v not in e2.logs or v not in e3.logs or e2.logs[v] != e3.logs[v]:
            return False
    out3 = dict(e3.outputs)
    return all(out3.get(v) == 0 for v in left) and all(out3.get(v) == 1 for v in right)
