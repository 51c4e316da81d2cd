import hashlib
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest
from numpy.testing import assert_allclose

from qnt import network, protocols
from qnt.network import (
    BranchSelection,
    BranchSelectionError,
    Edge,
    EquivalentChannel,
    Topology,
    TopologyError,
    TopologyViolation,
    etching_rounds,
    natural_key,
    select_mergecast_branches,
    simplify_degree2,
    validate,
)
from qnt.pauli import PauliChannel, compose_channels
from qnt.protocols import SpamModel
from qnt.topo_io import bundled_topology, load_topology
from tests_support_chain import build_chain_heavy_topology
from tests_support_tree import benchmark_tree

UNIFORM = PauliChannel(0.8, 0.8, 0.8)
DATA_DIR = pathlib.Path(__file__).parent / "data"


def star3() -> Topology:
    nodes = {"C": "internal", "A1": "monitor", "A2": "monitor", "B": "monitor"}
    edges = [
        Edge("P1", "C", "A1", PauliChannel(0.5, 0.5, 0.5)),
        Edge("P2", "C", "A2", PauliChannel(0.25, 0.25, 0.25)),
        Edge("P3", "C", "B", PauliChannel(0.35, 0.35, 0.35)),
    ]
    return Topology(nodes, edges)


def chain_topology() -> Topology:
    # monitor - A - B - monitor, both interior nodes degree 2
    nodes = {"M1": "monitor", "A": "internal", "B": "internal", "M2": "monitor"}
    edges = [
        Edge("E1", "M1", "A", PauliChannel(0.9, 0.9, 0.9)),
        Edge("E2", "A", "B", PauliChannel(0.8, 0.8, 0.8)),
        Edge("E3", "B", "M2", PauliChannel(0.7, 0.7, 0.7)),
    ]
    return Topology(nodes, edges)


def star_with_pendants() -> Topology:
    """A 3-branch hub where two branches pass through degree-2 relays."""
    nodes = {
        "HUB": "internal",
        "R1": "internal",
        "R2": "internal",
        "M1": "monitor",
        "M2": "monitor",
        "M3": "monitor",
    }
    edges = [
        Edge("P1", "M1", "R1", PauliChannel(0.9, 0.9, 0.9)),
        Edge("P2", "R1", "HUB", PauliChannel(0.8, 0.8, 0.8)),
        Edge("P3", "HUB", "R2", PauliChannel(0.7, 0.7, 0.7)),
        Edge("P4", "R2", "M2", PauliChannel(0.6, 0.6, 0.6)),
        Edge("P5", "HUB", "M3", PauliChannel(0.5, 0.5, 0.5)),
    ]
    return Topology(nodes, edges)


class TestNaturalKey:
    def test_numeric_ordering(self):
        assert sorted(["P11", "P2", "P1"], key=natural_key) == ["P1", "P2", "P11"]

    def test_only_decimal_digit_runs_are_numbers(self):
        # '²' passes str.isdigit() but is not matched by \d, so it stays text
        assert natural_key("H1\u00b2") == ("H", 1, "\u00b2")
        assert natural_key("P2") < natural_key("P11")
        assert natural_key("M1") == natural_key("M01")


class TestTopology:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError, match="^duplicate edge id 'E'$"):
            Topology(
                {"A": "monitor", "B": "monitor"},
                [Edge("E", "A", "B", UNIFORM), Edge("E", "A", "B", UNIFORM)],
            )

    @pytest.mark.parametrize(
        "node_a, node_b, unknown",
        [("A", "ZZ", "ZZ"), ("YY", "A", "YY"), ("YY", "ZZ", "YY"), ("YY", "YY", "YY")],
        ids=["node_b", "node_a", "both", "loop-of-unknown"],
    )
    def test_unknown_node_rejected_naming_the_first_unknown_end(self, node_a, node_b, unknown):
        with pytest.raises(TopologyError, match=f"^edge 'E' references unknown node '{unknown}'$"):
            Topology({"A": "monitor"}, [Edge("E", node_a, node_b, UNIFORM)])

    def test_unknown_node_kind_rejected(self):
        with pytest.raises(TopologyError, match="^node 'B' has unknown kind 'relay'$"):
            Topology({"A": "monitor", "B": "relay"}, [])

    def test_self_loop_rejected_naming_edge_and_node(self):
        with pytest.raises(TopologyError, match="^edge 'L' starts and ends at node 'X'$"):
            Topology({"X": "internal", "M": "monitor"},
                     [Edge("E1", "X", "M", UNIFORM), Edge("L", "X", "X", UNIFORM)])
        # the file lists E10 before E9, so E10 is the first loop built
        with pytest.raises(TopologyError, match="^edge 'E10' starts and ends at node 'H'$"):
            load_topology(DATA_DIR / "self_loops.topo")

    @pytest.mark.parametrize(
        "record, field",
        [(Edge("E", "A", "B", UNIFORM), "node_a"),
         (TopologyViolation("empty", "-", "topology has no nodes"), "subject"),
         (EquivalentChannel(("E1", "E2"), "A", "B", UNIFORM), "composite"),
         (BranchSelection("H", (), ("E1",), (), ("E2",), ()), "path_a2")],
        ids=["edge", "violation", "equivalent", "selection"],
    )
    def test_record_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, "X")


class TestValidate:
    def test_star_is_valid(self):
        assert validate(star3()) == []

    def test_fig1_is_valid(self):
        topo = bundled_topology("fig1")
        assert validate(topo) == []
        assert validate(topo, require_simplified=True) == []
        assert len(topo.edges) == 19
        assert len(topo.monitors) == 8

    def test_isolated_node_flagged(self):
        topo = Topology(
            {"A": "monitor", "B": "monitor", "LONER": "internal"},
            [Edge("E", "A", "B", UNIFORM)],
        )
        rules = {v.rule for v in validate(topo)}
        assert "connectivity" in rules

    def test_monitor_degree_flagged(self):
        topo = Topology(
            {"A": "monitor", "B": "monitor", "C": "monitor"},
            [Edge("E1", "A", "B", UNIFORM), Edge("E2", "A", "C", UNIFORM)],
        )
        assert any(v.rule == "monitor-degree" and v.subject == "A" for v in validate(topo))

    @pytest.mark.parametrize(
        "nodes, links, require_simplified, expected",
        [
            ({}, [], False, [("empty", "-")]),
            ({"A": "internal", "B": "internal"}, [("A", "B")], False, [("no-monitors", "-")]),
            ({"A": "monitor", "B": "monitor", "X": "internal"}, [("A", "B")], False,
             [("connectivity", "X"), ("isolated", "X")]),
            ({"A": "monitor", "B": "monitor", "C": "monitor"}, [("A", "B"), ("A", "C")], False,
             [("monitor-degree", "A")]),
            ({"A": "monitor", "B": "monitor", "C": "monitor", "D": "monitor"}, [("A", "B"), ("C", "D")],
             False, [("connectivity", "C")]),
            ({"M1": "monitor", "X": "internal", "M2": "monitor"}, [("M1", "X"), ("X", "M2")], False, []),
            ({"M1": "monitor", "X": "internal", "M2": "monitor"}, [("M1", "X"), ("X", "M2")], True,
             [("internal-degree", "X")]),
        ],
        ids=["empty", "no-monitors", "isolated", "monitor-degree", "connectivity", "internal-degree-allowed",
             "internal-degree"],
    )
    def test_each_rule_names_its_subject(self, nodes, links, require_simplified, expected):
        edges = [Edge(f"E{k}", a, b, UNIFORM) for k, (a, b) in enumerate(links, start=1)]
        violations = validate(Topology(nodes, edges), require_simplified=require_simplified)
        assert [(v.rule, v.subject) for v in violations] == expected

    def test_degree2_only_flagged_when_simplified_required(self):
        topo = chain_topology()
        assert validate(topo) == []
        assert any(v.rule == "internal-degree" for v in validate(topo, require_simplified=True))

    def test_connectivity_names_the_first_declared_of_equal_keys(self):
        # N1, N001 and N01 are equal under natural_key, and a set of them iterates
        # in an order that PYTHONHASHSEED decides
        script = (
            "from qnt.network import Edge, Topology, validate\n"
            "from qnt.pauli import PauliChannel\n"
            "ch = PauliChannel(0.8, 0.8, 0.8)\n"
            "nodes = {'A': 'monitor', 'B': 'monitor', 'N1': 'internal', 'N001': 'internal', 'N01': 'internal'}\n"
            "edges = [Edge('E1', 'A', 'B', ch), Edge('E2', 'N1', 'N001', ch), Edge('E3', 'N001', 'N01', ch)]\n"
            "print([(v.rule, v.subject) for v in validate(Topology(nodes, edges))][0])\n"
        )
        src = str(pathlib.Path(network.__file__).resolve().parents[1])
        for hash_seed in range(8):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(hash_seed)}
            result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            assert result.stdout == "('connectivity', 'N1')\n", hash_seed


def reference_simplify_degree2(topology: Topology):
    """The former :func:`simplify_degree2`, which re-derived each interior node's
    other edge, re-checked its walks and recomputed the interior nodes."""

    def is_chain_interior(node):
        return not topology.is_monitor(node) and topology.degree(node) == 2

    if not any(is_chain_interior(node) for node in topology.nodes):
        return topology, []
    consumed = set()
    equivalents = []
    surviving = []
    for edge_id in topology.sorted_edge_ids():
        if edge_id in consumed:
            continue
        edge = topology.edges[edge_id]
        if not (is_chain_interior(edge.node_a) or is_chain_interior(edge.node_b)):
            surviving.append(edge)
            consumed.add(edge_id)
            continue
        ends = []
        for direction in (edge.node_a, edge.node_b):
            node, prev_edge = direction, edge_id
            segment = []
            while is_chain_interior(node):
                incident = [e for e in topology.incident_edges(node) if e != prev_edge]
                if len(incident) != 1:
                    raise TopologyError(f"inconsistent degree bookkeeping at node {node!r}")
                prev_edge = incident[0]
                segment.append(prev_edge)
                node = topology.edges[prev_edge].other(node)
                if prev_edge == edge_id or prev_edge in segment[:-1]:
                    raise TopologyError("cycle composed entirely of degree-2 nodes is unsupported")
            ends.append((node, segment))
        (end_a, seg_a), (end_b, seg_b) = ends
        if set(seg_a) & set(seg_b):
            raise TopologyError("cycle composed entirely of degree-2 nodes is unsupported")
        if end_a == end_b:
            raise TopologyError(f"degree-2 cycle attached to node {end_a!r} is unsupported")
        ordered = [*reversed(seg_a), edge_id, *seg_b]
        consumed.update(ordered)
        composite = compose_channels(topology.edges[member].channel for member in ordered)
        equivalents.append(EquivalentChannel(tuple(ordered), end_a, end_b, composite))
    new_nodes = {n: k for n, k in topology.nodes.items()}
    interior = {
        n
        for eq in equivalents
        for member in eq.edge_ids
        for n in topology.edges[member].endpoints
        if n not in (eq.node_a, eq.node_b)
    }
    for n in interior:
        new_nodes.pop(n)
    new_edges = list(surviving)
    for eq in equivalents:
        new_edges.append(Edge("+".join(eq.edge_ids), eq.node_a, eq.node_b, eq.composite))
    return Topology(new_nodes, new_edges), equivalents


def random_multigraph(seed: int) -> Topology:
    """A small seeded multigraph of internal and monitor nodes: random edges
    (parallel edges among them; a drawn pair with equal ends is skipped) plus,
    at random, degree-2 chains between existing nodes, pure degree-2 cycles
    and lollipops (a degree-2 cycle off one node).  Names are shuffled so
    natural order differs from insertion order."""
    rng = random.Random(seed)
    kinds = {}
    links = []

    def new_node(kind="internal"):
        name = f"N{rng.randrange(10**4)}"
        while name in kinds:
            name += "x"
        kinds[name] = kind
        return name

    for _ in range(rng.randrange(1, 8)):
        new_node(rng.choice(("internal", "internal", "monitor")))
    for _ in range(rng.randrange(0, 9)):
        a, b = rng.choice(list(kinds)), rng.choice(list(kinds))
        if a != b:
            links.append((a, b))
    for _ in range(rng.randrange(0, 3)):
        start = end = rng.choice(list(kinds))
        motif = rng.choice(("chain", "chain", "cycle", "lollipop"))
        if motif == "chain":
            end = rng.choice(list(kinds))
        elif motif == "cycle":
            start = end = new_node()
        previous = start
        for _ in range(rng.randrange(1, 4)):
            relay = new_node()
            links.append((previous, relay))
            previous = relay
        links.append((previous, end))
    numbers = rng.sample(range(10 * len(links) + 1), len(links))
    return Topology(kinds, [Edge(f"E{k}", a, b, PauliChannel(*[rng.uniform(0.1, 1.0)] * 3))
                            for k, (a, b) in zip(numbers, links)])


def edge_rows(topology: Topology) -> list:
    return [(e.edge_id, e.node_a, e.node_b, e.channel.q_x, e.channel.q_y, e.channel.q_z)
            for e in topology.edges.values()]


class TestSimplifyDegree2:
    def test_no_degree2_unchanged(self):
        topo = star3()
        simplified, equivalents = simplify_degree2(topo)
        assert equivalents == []
        assert simplified is topo  # immutable, so a copy would be dead work

    @pytest.mark.parametrize("name", ["tree60_reversed.topo"])
    def test_parsed_file_with_nothing_to_contract_is_used_as_parsed(self, name):
        topo = load_topology(DATA_DIR / name)
        simplified, equivalents = simplify_degree2(topo)
        assert (simplified, equivalents) == (topo, [])
        assert simplified is topo

    def test_chain_contracts_to_single_edge(self):
        topo = chain_topology()
        simplified, equivalents = simplify_degree2(topo)
        assert simplified is not topo
        assert len(equivalents) == 1
        eq = equivalents[0]
        assert eq.edge_ids == ("E1", "E2", "E3")
        assert {eq.node_a, eq.node_b} == {"M1", "M2"}
        assert_allclose(eq.composite.q, [0.9 * 0.8 * 0.7] * 3)
        assert len(simplified.edges) == 1
        assert validate(simplified, require_simplified=True) == []

    def test_star_with_pendants(self):
        simplified, equivalents = simplify_degree2(star_with_pendants())
        assert len(equivalents) == 2
        by_ids = {eq.edge_ids: eq for eq in equivalents}
        assert ("P1", "P2") in by_ids
        assert ("P3", "P4") in by_ids
        assert_allclose(by_ids[("P1", "P2")].composite.q, [0.72] * 3)
        # edge count conserved: simple edges + total path length
        total = sum(len(eq.edge_ids) for eq in equivalents)
        assert total + len([e for e in simplified.edges if "+" not in e]) == 5
        assert validate(simplified, require_simplified=True) == []

    def test_idempotent(self):
        simplified, _ = simplify_degree2(star_with_pendants())
        again, equivalents = simplify_degree2(simplified)
        assert equivalents == []
        assert again is simplified

    def test_pure_degree2_cycle_rejected(self):
        nodes = {"A": "internal", "B": "internal", "C": "internal"}
        edges = [
            Edge("E1", "A", "B", UNIFORM),
            Edge("E2", "B", "C", UNIFORM),
            Edge("E3", "C", "A", UNIFORM),
        ]
        with pytest.raises(TopologyError):
            simplify_degree2(Topology(nodes, edges))

    def test_anchored_degree2_cycle_rejected(self):
        # a cycle of degree-2 relays hanging off one hub would contract to a
        # self-loop
        nodes = {
            "HUB": "internal",
            "R1": "internal",
            "R2": "internal",
            "M1": "monitor",
            "M2": "monitor",
            "M3": "monitor",
        }
        edges = [
            Edge("E1", "HUB", "M1", UNIFORM),
            Edge("E2", "HUB", "M2", UNIFORM),
            Edge("E3", "HUB", "M3", UNIFORM),
            Edge("E4", "HUB", "R1", UNIFORM),
            Edge("E5", "R1", "R2", UNIFORM),
            Edge("E6", "R2", "HUB", UNIFORM),
        ]
        with pytest.raises(TopologyError):
            simplify_degree2(Topology(nodes, edges))

    def test_matches_reference_on_random_multigraphs(self):
        seen = {"contracted": 0, "raised": 0}
        for seed in range(3000):
            topology = random_multigraph(seed)
            try:
                expected = reference_simplify_degree2(topology)
            except TopologyError as err:
                with pytest.raises(TopologyError) as raised:
                    simplify_degree2(topology)
                assert type(raised.value) is TopologyError and str(raised.value) == str(err)
                seen["raised"] += 1
                continue
            simplified, equivalents = simplify_degree2(topology)
            assert (simplified is topology) == (expected[0] is topology)
            assert list(simplified.nodes.items()) == list(expected[0].nodes.items())
            assert edge_rows(simplified) == edge_rows(expected[0])
            assert equivalents == expected[1]
            seen["contracted"] += bool(equivalents)
        assert min(seen.values()) >= 200, seen


class TestEtchingRounds:
    def test_fig1_three_rounds(self):
        rounds = list(etching_rounds(bundled_topology("fig1")))
        assert [[target for target, _ in selections] for selections in rounds] == [
            [f"P{i}" for i in range(12, 20)], [f"P{i}" for i in range(2, 12)], ["P1"]]
        # a node promoted in round 1 is not visible within it
        for _, selection in rounds[0]:
            assert selection.target_chain == selection.chain_a2 == selection.chain_b == ()
        # A1 is promoted through P2 (whose outer node B1 came through P12)
        # before P11 (C1 through P19) in round 2: the first promotion wins
        [(_, last)] = rounds[2]
        assert (last.merge_node, last.target_chain) == ("A2", ("P2", "P12"))

    def test_each_frontier_is_every_unidentified_edge_at_an_effective_monitor(self):
        # brute force: rescan every edge before each round, natural order with
        # insertion order between equal keys (the colliding-edge topologies)
        topologies = [random_mesh(seed, 6 + seed % 15, 1 + seed % 5) for seed in range(300)]
        topologies += [random_tree(seed, 20 + 7 * seed) for seed in range(8)]
        topologies += [colliding_edge_names("E1", "E01"), colliding_edge_names("E01", "E1")]
        stuck = 0
        for topo in topologies:
            identified, effective = set(), set(topo.monitors)
            rounds = etching_rounds(topo)
            while True:
                expected = [e for e in topo.sorted_edge_ids()
                            if e not in identified and topo.edges[e].endpoints & effective]
                try:
                    selections = next(rounds)
                except StopIteration:
                    assert expected == []
                    break
                except BranchSelectionError as err:
                    # a stuck mesh raises on a target of the round it could not take
                    assert any(f"target {e!r}" in str(err) for e in expected)
                    stuck += 1
                    break
                assert [target for target, _ in selections] == expected
                identified.update(expected)
                effective.update(selection.merge_node for _, selection in selections)
        assert 0 < stuck < 300


class TestBranchSelection:
    def test_star_single_edge_branches(self):
        topo = star3()
        chains = dict.fromkeys(topo.monitors, ())
        sel = select_mergecast_branches(topo, chains, "P1")
        assert sel.merge_node == "C"
        assert {sel.path_a2, sel.path_b} == {("P2",), ("P3",)}
        assert sel.target_chain == ()

    def test_an_effective_monitor_start_is_never_yielded(self):
        # S is an effective monitor on a cycle, so the search reaches it again from A and B
        nodes = {"S": "internal", "A": "internal", "B": "internal",
                 "M1": "monitor", "M2": "monitor", "M3": "monitor"}
        edges = [Edge("E1", "S", "M1", UNIFORM), Edge("E2", "S", "A", UNIFORM),
                 Edge("E3", "A", "B", UNIFORM), Edge("E4", "S", "B", UNIFORM),
                 Edge("E5", "A", "M2", UNIFORM), Edge("E6", "B", "M3", UNIFORM)]
        topo = Topology(nodes, edges)
        chains = dict.fromkeys(topo.monitors, ())
        chains["S"] = ("E1",)
        ranked = list(network._ranked_monitors(topo, chains, "S", set()))
        assert ranked == [("M1", ("E1",), ()), ("M2", ("E2", "E5"), ()), ("M3", ("E4", "E6"), ())]

    def test_fig1_peripheral_target(self):
        topo = bundled_topology("fig1")
        chains = dict.fromkeys(topo.monitors, ())
        sel = select_mergecast_branches(topo, chains, "P12")
        assert sel.merge_node == "B1"
        # shortest-path selection lands on one 2-edge and one 3-edge branch
        assert {sel.full_a2, sel.full_b} == {("P3", "P13"), ("P2", "P11", "P19")}
        # two edge-disjoint monitor-reaching paths avoiding the target
        assert not set(sel.full_a2) & set(sel.full_b)
        assert "P12" not in sel.full_a2 + sel.full_b
        ends = set()
        for path in (sel.path_a2, sel.path_b):
            node = "B1"
            for edge_id in path:
                node = topo.edges[edge_id].other(node)
            ends.add(node)
        assert len(ends) == 2
        assert all(topo.is_monitor(n) for n in ends)

    def test_interior_nodes_are_not_monitors(self):
        topo = bundled_topology("fig1")
        chains = dict.fromkeys(topo.monitors, ())
        sel = select_mergecast_branches(topo, chains, "P12")
        for path in (sel.path_a2, sel.path_b):
            node = "B1"
            for edge_id in path[:-1]:
                node = topo.edges[edge_id].other(node)
                assert node not in chains

    def test_single_reachable_monitor_fails(self):
        # Every monitor-reaching path from the merge node B ends at the same
        # monitor M1, so no two branches with distinct endpoints exist.
        nodes = {
            "A": "internal",
            "B": "internal",
            "C": "internal",
            "M1": "monitor",
            "M3": "monitor",
        }
        edges = [
            Edge("E1", "M1", "A", UNIFORM),
            Edge("E3", "A", "B", UNIFORM),
            Edge("E4", "B", "M3", UNIFORM),
            Edge("E5", "B", "C", UNIFORM),
            Edge("E6", "C", "A", UNIFORM),
        ]
        topo = Topology(nodes, edges)
        chains = dict.fromkeys(topo.monitors, ())
        with pytest.raises(BranchSelectionError):
            select_mergecast_branches(topo, chains, "E4")

    def test_deterministic(self):
        topo = bundled_topology("fig1")
        chains = dict.fromkeys(topo.monitors, ())
        first = select_mergecast_branches(topo, chains, "P12")
        second = select_mergecast_branches(topo, chains, "P12")
        assert first == second


def _reference_paths(topology, chains, start, blocked_edges):
    # reference search: a full-graph BFS to every reachable effective monitor
    paths = {}
    visited = {start}
    queue = [(start, ())]
    while queue:
        node, path = queue.pop(0)
        for edge_id in topology.incident_edges(node):
            if edge_id in blocked_edges or edge_id in path:
                continue
            other = topology.edges[edge_id].other(node)
            if other in chains:
                if other not in paths and other != start:
                    paths[other] = path + (edge_id,)
                continue
            if other in visited:
                continue
            visited.add(other)
            queue.append((other, path + (edge_id,)))
    return paths


def reference_select(topology, chains, target):
    """Branch selection by full BFS plus a sort of every reachable monitor."""
    edge = topology.edges[target]
    candidates = sorted(
        ((outer, center) for outer, center in ((edge.node_a, edge.node_b), (edge.node_b, edge.node_a))
         if outer in chains),
        key=lambda pair: natural_key(pair[0]),
    )
    if not candidates:
        raise BranchSelectionError(f"target {target!r} has no endpoint in the effective monitors")

    def ranked(paths):
        return sorted(paths, key=lambda mon: (
            len(paths[mon]) + len(chains[mon]), natural_key(mon)))

    last_error = f"no disjoint branch pair found for target {target!r}"
    for outer, center in candidates:
        target_chain = chains[outer]
        reserved = set(target_chain) | {target}
        first_paths = _reference_paths(topology, chains, center, reserved)
        for monitor_a in ranked(first_paths):
            if monitor_a == outer:
                continue
            path_a, chain_a = first_paths[monitor_a], chains[monitor_a]
            used = reserved | set(path_a) | set(chain_a)
            if len(used) != len(reserved) + len(path_a) + len(chain_a):
                continue
            second_paths = _reference_paths(topology, chains, center, used)
            for monitor_b in ranked(second_paths):
                if monitor_b in (outer, monitor_a):
                    continue
                path_b, chain_b = second_paths[monitor_b], chains[monitor_b]
                if len(used | set(path_b) | set(chain_b)) != len(used) + len(path_b) + len(chain_b):
                    continue
                return BranchSelection(center, target_chain, path_a, chain_a, path_b, chain_b)
        last_error = (
            f"merge node {center!r} cannot reach two distinct effective monitors "
            f"on edge-disjoint paths avoiding target {target!r}"
        )
    raise BranchSelectionError(last_error)


MESH_CHANNEL = PauliChannel(0.95, 0.95, 0.95)


def random_tree(seed: int, n_edges: int) -> Topology:
    """A seeded tree of at least ``n_edges`` edges whose internal nodes have
    degree >= 3 and whose leaves are the monitors."""
    rng = random.Random(seed)
    kinds = {"N0": "internal"}
    leaves, links = [], []

    def attach(parent):
        child = f"N{len(kinds)}"
        kinds[child] = "monitor"
        leaves.append(child)
        links.append((parent, child))

    for _ in range(3):
        attach("N0")
    while len(links) < n_edges:
        node = leaves.pop(rng.randrange(len(leaves)))
        kinds[node] = "internal"
        for _ in range(rng.choice((2, 3))):
            attach(node)
    return Topology(kinds, [Edge(f"E{i}", a, b, MESH_CHANNEL) for i, (a, b) in enumerate(links)])


def random_mesh(seed: int, n_internal: int, n_extra: int) -> Topology:
    """A random spanning tree of internal nodes plus ``n_extra`` random
    internal edges (cycles, parallel edges), with monitors attached only
    where an internal node would otherwise have degree below 3."""
    rng = random.Random(seed)
    links = [(f"H{i}", f"H{rng.randrange(i)}") for i in range(1, n_internal)]
    links += [tuple(f"H{j}" for j in rng.sample(range(n_internal), 2)) for _ in range(n_extra)]
    return with_monitors(n_internal, links)


def corner_monitor_grid(k: int) -> Topology:
    """A k x k grid of internal nodes, H0 to H{k*k - 1} row by row, with a monitor
    attached wherever a node's degree is below 3: one at each corner."""
    links = [(f"H{i}", f"H{i + 1}") for i in range(k * k) if (i + 1) % k]
    links += [(f"H{i}", f"H{i + k}") for i in range(k * k - k)]
    return with_monitors(k * k, links)


def with_monitors(n_internal: int, links: list) -> Topology:
    """Internal nodes H0 to H{n_internal - 1} joined by ``links``, plus monitors
    M<n> attached wherever an internal node has degree below 3."""
    kinds = {f"H{i}": "internal" for i in range(n_internal)}
    degree = dict.fromkeys(kinds, 0)
    for a, b in links:
        degree[a] += 1
        degree[b] += 1
    for node in list(degree):
        for _ in range(3 - degree[node]):
            monitor = f"M{len(kinds)}"
            kinds[monitor] = "monitor"
            links.append((node, monitor))
    return Topology(kinds, [Edge(f"E{i}", a, b, MESH_CHANNEL) for i, (a, b) in enumerate(links)])


def colliding_names() -> Topology:
    """Monitor names equal under natural_key (M1/M01, M2/M02), discovered in
    the opposite order to their plain string order."""
    nodes = {"H1": "internal", "H2": "internal", "M1": "monitor", "M01": "monitor",
             "M2": "monitor", "M02": "monitor"}
    edges = [
        Edge("A1", "H1", "M1", UNIFORM),
        Edge("A2", "H1", "M01", UNIFORM),
        Edge("B1", "H2", "M2", UNIFORM),
        Edge("B2", "H2", "M02", UNIFORM),
        Edge("C", "H1", "H2", UNIFORM),
    ]
    return Topology(nodes, edges)


def colliding_edge_names(first: str, second: str) -> Topology:
    """Edge names equal under natural_key (E1/E01) at one node, inserted in the given order."""
    nodes = {"H": "internal", "M1": "monitor", "M2": "monitor", "M3": "monitor"}
    edges = [Edge(first, "H", "M1", UNIFORM), Edge(second, "H", "M2", UNIFORM),
             Edge("E0", "H", "M3", UNIFORM)]
    return Topology(nodes, edges)


KEYED_TOPOLOGIES = {
    "fig1": lambda: bundled_topology("fig1"),
    "star3": star3,
    "colliding-nodes": colliding_names,
    "colliding-edges": lambda: colliding_edge_names("E1", "E01"),
    "colliding-edges-reversed": lambda: colliding_edge_names("E01", "E1"),
    **{f"tree-{seed}": (lambda seed=seed: random_tree(seed, 20 + 7 * seed)) for seed in range(6)},
    "mesh": lambda: random_mesh(4, 10, 3),
}


class TestStoredKeys:
    """Keys computed once per topology order names exactly as natural_key does."""

    @pytest.mark.parametrize("build", KEYED_TOPOLOGIES.values(), ids=KEYED_TOPOLOGIES.keys())
    def test_keys_and_orders_match_natural_key(self, build):
        topology = build()
        for name in (*topology.nodes, *topology.edges):
            assert topology.sort_key(name) == natural_key(name)
        assert topology.sorted_edge_ids() == sorted(topology.edges, key=natural_key)
        for node in topology.nodes:
            incident = [e for e, edge in topology.edges.items() if node in edge.endpoints]
            assert list(topology.incident_edges(node)) == sorted(incident, key=natural_key)

    def test_equal_keys_keep_insertion_order(self):
        assert colliding_edge_names("E1", "E01").sorted_edge_ids() == ["E0", "E1", "E01"]
        assert colliding_edge_names("E01", "E1").incident_edges("H") == ("E0", "E01", "E1")

    def test_sorted_edge_ids_returns_a_copy(self):
        topology = bundled_topology("fig1")
        ids = topology.sorted_edge_ids()
        expected = list(ids)
        ids.reverse()
        ids.append("extra")
        assert topology.sorted_edge_ids() == expected


class TestStoredAdjacency:
    """A node's (edge id, neighbour) pairs are its incident edges, each with its other end."""

    def test_pairs_hold_each_incident_edge_and_its_other_end(self):
        topologies = [random_multigraph(seed) for seed in range(300)]
        topologies += [random_mesh(seed, 6 + seed % 15, 1 + seed % 5) for seed in range(300)]
        parallel = 0
        for topology in topologies:
            for node in topology.nodes:
                pairs = list(topology._adjacency[node])
                assert pairs == [(e, topology.edges[e].other(node)) for e in topology.incident_edges(node)]
                parallel += len({other for _, other in pairs}) < len(pairs)
        assert parallel


class TestStoredDegree:
    """A node's degree is its count of edge ends and of incident edges."""

    @pytest.mark.parametrize("build", KEYED_TOPOLOGIES.values(), ids=list(KEYED_TOPOLOGIES))
    def test_stored_degree_counts_edge_ends(self, build):
        topology = build()
        for node in topology.nodes:
            ends = sum((edge.node_a == node) + (edge.node_b == node) for edge in topology.edges.values())
            assert topology.degree(node) == ends == len(topology.incident_edges(node))


class TestDataFiles:
    def test_reversed_tree_file_holds_a_seeded_tree(self):
        # the golden etch-tree CSV of test_cli etches this file
        parsed = load_topology(DATA_DIR / "tree60_reversed.topo")
        tree = random_tree(4, 60)
        assert dict(parsed.nodes) == dict(tree.nodes)
        assert dict(parsed.edges) == dict(tree.edges)
        assert list(parsed.edges) == tree.sorted_edge_ids()[::-1]


def _etch_against_reference(monkeypatch, topology, bases=("Z",)) -> list:
    """Etch ``topology``, checking every branch selection of the sweep
    against :func:`reference_select`; returns the (actual, reference)
    outcome pairs.  A sweep that cannot select branches ends there."""
    assert validate(topology, require_simplified=True) == []
    pairs = []

    def outcome(select, *args):
        try:
            return select(*args)
        except BranchSelectionError as err:
            return f"BranchSelectionError: {err}"

    def checked(topology, chains, target):
        got = outcome(select_mergecast_branches, topology, chains, target)
        pairs.append((got, outcome(reference_select, topology, chains, target)))
        if isinstance(got, str):
            raise BranchSelectionError(got)
        return got

    monkeypatch.setattr(network, "select_mergecast_branches", checked)
    try:
        protocols.run_progressive_etching(
            topology, SpamModel(1.0, 1.0), samples=(10**6, 10**6), seed=7, bases=bases
        )
    except BranchSelectionError:
        pass
    assert pairs
    assert [got for got, _ in pairs] == [expected for _, expected in pairs]
    return pairs


class TestSelectionMatchesReference:
    """The lazy ranked search picks exactly what a full BFS plus a sort picks."""

    def test_fig1_all_bases(self, monkeypatch):
        pairs = _etch_against_reference(monkeypatch, bundled_topology("fig1"), ("Z", "X", "Y"))
        assert len(pairs) == 19

    def test_star_and_chain_heavy(self, monkeypatch):
        assert len(_etch_against_reference(monkeypatch, star3())) == 3
        chain_heavy, _ = simplify_degree2(build_chain_heavy_topology())
        assert _etch_against_reference(monkeypatch, chain_heavy)

    def test_colliding_monitor_names(self, monkeypatch):
        pairs = _etch_against_reference(monkeypatch, colliding_names())
        assert all(not isinstance(got, str) for got, _ in pairs)
        sel = select_mergecast_branches(colliding_names(), dict.fromkeys(colliding_names().monitors, ()), "B2")
        assert (sel.path_a2, sel.path_b) == (("B1",), ("C", "A1"))

    def test_equal_rank_found_a_level_later_wins_by_name(self):
        # B (one edge plus a one-edge chain) and A (two edges) both rank 2,
        # but A is found one BFS level after B; natural order still puts A first
        nodes = {"C": "internal", "D": "internal", "B": "internal", "X": "monitor",
                 "MB": "monitor", "A": "monitor", "Z": "monitor"}
        edges = [Edge("T", "C", "X", UNIFORM), Edge("Q", "B", "MB", UNIFORM),
                 Edge("E1", "C", "B", UNIFORM), Edge("E2", "C", "D", UNIFORM),
                 Edge("E3", "D", "A", UNIFORM), Edge("E4", "C", "Z", UNIFORM)]
        topo = Topology(nodes, edges)
        chains = dict.fromkeys(topo.monitors, ())
        chains["B"] = ("Q",)
        sel = select_mergecast_branches(topo, chains, "T")
        assert (sel.path_a2, sel.path_b, sel.chain_b) == (("E4",), ("E2", "E3"), ())
        assert sel == reference_select(topo, chains, "T")

    @pytest.mark.parametrize(
        "ends, merge_node",
        [(("H1", "H01"), "H01"), (("H01", "H1"), "H1"), (("H2", "H10"), "H10"), (("H10", "H2"), "H10")],
        ids=["equal-keys", "equal-keys-reversed", "natural", "natural-reversed"],
    )
    def test_target_between_effective_monitors_merges_away_from_the_first_end(self, ends, merge_node):
        # the outer end comes first in natural order, equal keys as the edge lists them
        first, second = ends
        nodes = {first: "internal", second: "internal", "M1": "monitor", "M2": "monitor",
                 "N1": "monitor", "N2": "monitor"}
        edges = [Edge("A1", first, "M1", UNIFORM), Edge("A2", first, "M2", UNIFORM),
                 Edge("B1", second, "N1", UNIFORM), Edge("B2", second, "N2", UNIFORM),
                 Edge("T", first, second, UNIFORM)]
        topo = Topology(nodes, edges)
        chains = {**dict.fromkeys(topo.monitors, ()), first: ("A1",), second: ("B1",)}
        sel = select_mergecast_branches(topo, chains, "T")
        assert sel.merge_node == merge_node
        assert sel == reference_select(topo, chains, "T")

    def test_seeded_trees(self, monkeypatch):
        for seed in range(20):
            pairs = _etch_against_reference(monkeypatch, random_tree(seed, 20 + 7 * seed))
            assert all(not isinstance(got, str) for got, _ in pairs)

    def test_seeded_meshes(self, monkeypatch):
        errors = 0
        for seed in range(50):
            pairs = _etch_against_reference(monkeypatch, random_mesh(seed, 6 + seed % 15, 1 + seed % 5))
            errors += isinstance(pairs[-1][0], str)
        assert 0 < errors < 50

    @pytest.mark.parametrize("k", [4, 6])
    def test_corner_monitor_grids(self, monkeypatch, k):
        grid = corner_monitor_grid(k)
        assert len(grid.monitors) == 4
        pairs = _etch_against_reference(monkeypatch, grid)
        assert len(pairs) == len(grid.edges)
        assert all(not isinstance(got, str) for got, _ in pairs)

    @pytest.mark.parametrize("n_edges", [200, 250, 300])
    def test_benchmark_shaped_trees(self, monkeypatch, n_edges):
        for seed in range(3):
            tree = benchmark_tree(seed, n_edges)
            assert len(tree.edges) == n_edges
            pairs = _etch_against_reference(monkeypatch, tree)
            assert len(pairs) == n_edges
            assert all(not isinstance(got, str) for got, _ in pairs)

    def test_round_dump_digest(self):
        # Every round of 403 topologies (59 meshes end in a BranchSelectionError), with
        # validate's output, as text: a change to the search or its tie-breaks shows here.
        topologies = [random_mesh(seed, 6 + seed % 15, 1 + seed % 5) for seed in range(300)]
        topologies += [random_tree(seed, 20 + 7 * seed) for seed in range(100)]
        topologies += [corner_monitor_grid(k) for k in (10, 20, 30)]
        digest, failures = hashlib.sha256(), 0
        for topology in topologies:
            lines = [repr(validate(topology, require_simplified=True))]
            try:
                lines += map(repr, etching_rounds(topology))
            except BranchSelectionError as err:
                lines.append(f"BranchSelectionError: {err}")
                failures += 1
            digest.update(("\n".join(lines) + "\n").encode())
        assert failures == 59
        assert digest.hexdigest()[:16] == "ff5ddb32d9a41eca"


class TestEtchingCost:
    """Deterministic counts of the searches and kernel calls a sweep makes."""

    def test_tree60_searches_and_kernel_calls(self, monkeypatch):
        topology, _ = simplify_degree2(load_topology(DATA_DIR / "tree60_reversed.topo"))
        searches, kernel_calls, current = Counter(), Counter(), []
        ranked, select, pipeline = network._ranked_monitors, network.select_mergecast_branches, protocols._pipeline

        def counted_select(topology, chains, target):
            current[:] = [target]
            return select(topology, chains, target)

        def counted_search(*args):
            searches[current[0]] += 1
            return ranked(*args)

        def counted_pipeline(table, paths, spam, basis, *args, **kwargs):
            kernel_calls[basis] += 1
            return pipeline(table, paths, spam, basis, *args, **kwargs)

        monkeypatch.setattr(network, "select_mergecast_branches", counted_select)
        monkeypatch.setattr(network, "_ranked_monitors", counted_search)
        monkeypatch.setattr(protocols, "_pipeline", counted_pipeline)
        plan = protocols.plan_etching(topology, SpamModel(1.0, 1.0), ("Z", "X", "Y"))
        assert set(searches) == set(topology.edges)
        assert max(searches.values()) <= 2
        assert kernel_calls == dict.fromkeys("ZXY", len(plan.rounds))
