from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from hyperbft.conditions import check_lcr_hyper
from hyperbft.formats import (
    MAX_LISTED_FAILURES,
    FormatError,
    canonical_json,
    parse_scenario,
    parse_topology,
    render_condition_report,
    render_sweep_report,
    scenario_to_json,
    serialize_topology,
    to_jsonable,
)
from hyperbft.generators import complete_p2p, random_hypergraph
from hyperbft.protocol import sweep_scenarios


def small_graphs(max_n: int = 6, max_m: int = 12):
    return st.builds(
        random_hypergraph,
        st.integers(min_value=2, max_value=max_n),
        st.integers(min_value=1, max_value=max_m),
        st.integers(min_value=0, max_value=2**31),
    )


def test_parse_simple_topology() -> None:
    text = "hypergraph n=3\nedge 0 0 -> 1 2\nedge 1 2 -> 0\n"
    g = parse_topology(text)
    assert g.n == 3
    assert len(g.edges) == 2
    assert g.edges[0].head == 0 and g.edges[0].tails == {1, 2}


def test_comments_and_blank_lines_ignored() -> None:
    text = "# fixture\nhypergraph n=2\n\n# channel\nedge 0 0 -> 1\n"
    g = parse_topology(text)
    assert len(g.edges) == 1


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_topology_round_trip_is_byte_identical(g) -> None:
    text = serialize_topology(g)
    assert parse_topology(text) == g
    assert serialize_topology(parse_topology(text)) == text


@pytest.mark.parametrize(
    "text, line",
    [
        ("edge 0 0 -> 1\n", 1),                       # missing header
        ("hypergraph n=zero\n", 1),                   # bad node count
        ("hypergraph n=2\nedge x 0 -> 1\n", 2),       # bad edge id
        ("hypergraph n=2\nedge 0 5 -> 1\n", 2),       # head out of range
        ("hypergraph n=2\nedge 0 0 -> 9\n", 2),       # tail out of range
        ("hypergraph n=2\nedge 0 0 ->\n", 2),         # no tails
        ("hypergraph n=2\nedge 0 0 -> 0\n", 2),       # head in its own tails
        ("hypergraph n=2\nedge 0 0 -> 1\nedge 0 1 -> 0\n", 3),  # duplicate id
        ("hypergraph n=2\nbogus line\n", 2),          # unknown directive
    ],
)
def test_parse_errors_carry_line_numbers(text: str, line: int) -> None:
    with pytest.raises(FormatError) as err:
        parse_topology(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def test_scenario_round_trip() -> None:
    g = complete_p2p(3)
    doc = scenario_to_json(g, 1, [2], {0: 1, 1: 0, 2: 1}, "constant-1", seed=5)
    scn = parse_scenario(doc)
    assert scn["graph"] == g
    assert scn["f"] == 1
    assert scn["faulty"] == {2}
    assert scn["inputs"] == {0: 1, 1: 0, 2: 1}
    assert scn["adversary"] == "constant-1"
    assert scn["seed"] == 5


def test_scenario_accepts_topology_alias() -> None:
    g = complete_p2p(3)
    doc = json.loads(scenario_to_json(g, 1, [], {0: 0, 1: 0, 2: 0}))
    doc["topology"] = doc.pop("graph")
    assert parse_scenario(json.dumps(doc))["graph"] == g


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("graph"), "graph"),
        (lambda d: d.pop("inputs"), "inputs"),
        (lambda d: d.update(f=-1), "non-negative"),
        (lambda d: d.update(faulty=[9]), "node ids"),
        (lambda d: d.update(faulty=[0, 1]), "faulty set has 2"),
        (lambda d: d.update(inputs={"0": 2, "1": 0, "2": 0}), "0 or 1"),
        (lambda d: d.update(inputs={"0": 0}), "missing inputs"),
        (lambda d: d.update(adversary=7), "string"),
    ],
)
def test_scenario_schema_violations(mutate, message: str) -> None:
    g = complete_p2p(3)
    doc = json.loads(scenario_to_json(g, 1, [0], {0: 0, 1: 0, 2: 0}))
    mutate(doc)
    with pytest.raises(ValueError, match=message):
        parse_scenario(json.dumps(doc))


def test_canonical_json_is_sorted_and_stable() -> None:
    a = canonical_json({"b": 1, "a": [frozenset({3, 1})]})
    b = canonical_json({"a": [frozenset({1, 3})], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [[1, 3]], "b": 1}


def test_report_rendering_mentions_witness() -> None:
    rep = check_lcr_hyper(complete_p2p(3), 1)
    text = render_condition_report(rep)
    assert "holds: no" in text
    assert "violating fault set" in text
    assert render_condition_report(rep) == text  # stable

    blob = canonical_json(rep)
    parsed = json.loads(blob)
    assert parsed["holds"] is False
    assert parsed["violation"]["fault_set"] == [0]


def test_sweep_report_lists_the_first_failures_and_counts_the_rest() -> None:
    """K3 at f=1 fails 12 of its 152 runs: the report lists 5, then the count."""
    text = render_sweep_report(sweep_scenarios(complete_p2p(3), 1))
    lines = text.splitlines()
    assert MAX_LISTED_FAILURES == 5
    assert "failures: 12" in lines
    assert sum(line.startswith("  faulty=") for line in lines) == 5
    assert lines[-1] == "  ... 7 more"


def test_to_jsonable_rejects_unknown_types() -> None:
    with pytest.raises(TypeError):
        to_jsonable(object())
