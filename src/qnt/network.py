"""Network graph model: monitors, Pauli-channel edges, and the etching rounds.

A topology is an undirected multigraph without self-loops, whose nodes are
either ``monitor`` (peripheral, degree exactly 1, capable of state
preparation/measurement) or ``internal`` (gate operations only); a loop
lies on no monitor-to-monitor path, so no measurement could identify it.
Tomography identifies edges from the periphery inward: :func:`etching_rounds`
yields each round's targets with their Mergecast branch selections and then
promotes the merge nodes to *effective monitors*, each with a chain of
identified edges back to a real monitor (its entry in the ``chains`` map).
:mod:`qnt.protocols` turns the rounds into estimates.

Degree-2 internal nodes make their incident channels individually
unidentifiable; :func:`simplify_degree2` contracts each maximal chain of
them into one equivalent channel whose parameters are the componentwise
product of the members'.
"""

from __future__ import annotations

import heapq
import re
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .pauli import PauliChannel, compose_channels

MONITOR = "monitor"
INTERNAL = "internal"


class TopologyError(ValueError):
    """Structurally invalid topology or reference to a missing node/edge."""


class BranchSelectionError(RuntimeError):
    """No valid pair of disjoint monitor-reaching branches exists."""


_DIGIT_RUNS = re.compile(r"(\d+)")


def natural_key(identifier: str) -> tuple:
    """Sort key treating digit runs numerically, so P2 < P11."""
    parts = _DIGIT_RUNS.split(identifier)
    for odd in range(1, len(parts), 2):  # the captured digit runs
        parts[odd] = int(parts[odd])
    return tuple(parts)


class Edge(NamedTuple):
    edge_id: str
    node_a: str
    node_b: str
    channel: PauliChannel

    def other(self, node: str) -> str:
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise TopologyError(f"node {node!r} is not an endpoint of edge {self.edge_id!r}")

    @property
    def endpoints(self) -> frozenset:
        return frozenset((self.node_a, self.node_b))


class Topology:
    """Immutable node/edge container with adjacency lookups; it rejects self-loops."""

    def __init__(self, nodes: Mapping[str, str], edges: Iterable[Edge]):
        node_map = dict(nodes)
        for node, kind in node_map.items():
            if kind not in (MONITOR, INTERNAL):
                raise TopologyError(f"node {node!r} has unknown kind {kind!r}")
        edge_map: dict[str, Edge] = {}
        adjacency: dict[str, list[tuple[str, str]]] = {node: [] for node in node_map}
        for edge in edges:
            if edge.edge_id in edge_map:
                raise TopologyError(f"duplicate edge id {edge.edge_id!r}")
            for endpoint in (edge.node_a, edge.node_b):
                if endpoint not in node_map:
                    raise TopologyError(
                        f"edge {edge.edge_id!r} references unknown node {endpoint!r}"
                    )
            if edge.node_a == edge.node_b:
                raise TopologyError(f"edge {edge.edge_id!r} starts and ends at node {edge.node_a!r}")
            edge_map[edge.edge_id] = edge
            adjacency[edge.node_a].append((edge.edge_id, edge.node_b))
            adjacency[edge.node_b].append((edge.edge_id, edge.node_a))
        # Natural-order keys of every node and edge name, computed once.
        self._keys = {name: natural_key(name) for name in (*node_map, *edge_map)}
        key = self._keys.__getitem__
        for incident in adjacency.values():
            incident.sort(key=lambda pair: key(pair[0]))
        self._nodes = MappingProxyType(node_map)
        self._edges = MappingProxyType(edge_map)
        # Each node's (edge id, neighbour) pairs in natural edge order.
        self._adjacency = MappingProxyType({n: tuple(pairs) for n, pairs in adjacency.items()})
        self._sorted_edges = tuple(sorted(edge_map, key=key))

    @property
    def nodes(self) -> Mapping[str, str]:
        return self._nodes

    @property
    def edges(self) -> Mapping[str, Edge]:
        return self._edges

    def is_monitor(self, node: str) -> bool:
        return self._nodes[node] == MONITOR

    @property
    def monitors(self) -> frozenset:
        return frozenset(n for n, kind in self._nodes.items() if kind == MONITOR)

    def incident_edges(self, node: str) -> tuple[str, ...]:
        return tuple(edge_id for edge_id, _ in self._adjacency[node])

    def degree(self, node: str) -> int:
        return len(self._adjacency[node])

    def sort_key(self, name: str) -> tuple:
        """``natural_key(name)`` of a node or edge name of this topology."""
        return self._keys[name]

    def sorted_edge_ids(self) -> list[str]:
        return list(self._sorted_edges)


class TopologyViolation(NamedTuple):
    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.detail}"


def _connected_components(topology: Topology) -> list[set]:
    adjacency = topology._adjacency
    seen: set[str] = set()
    components = []
    for start in topology.nodes:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(other for _, other in adjacency[node])
        seen |= comp
        components.append(comp)
    return components


def validate(topology: Topology, require_simplified: bool = False) -> list[TopologyViolation]:
    """Structural checks; an empty list means the topology is valid.

    ``require_simplified`` adds the post-condition of :func:`simplify_degree2`:
    an internal node has degree >= 3.
    """
    violations = []
    if not topology.nodes:
        violations.append(TopologyViolation("empty", "-", "topology has no nodes"))
        return violations
    components = _connected_components(topology)
    if len(components) > 1:
        order = {node: i for i, node in enumerate(topology.nodes)}  # equal keys: the first declared
        for comp in components[1:]:
            sample = min(comp, key=lambda node: (topology.sort_key(node), order[node]))
            violations.append(
                TopologyViolation("connectivity", sample, "node is not connected to the rest")
            )
    for node, kind in topology.nodes.items():
        degree = topology.degree(node)
        if kind == MONITOR and degree != 1:
            violations.append(
                TopologyViolation("monitor-degree", node, f"monitor has degree {degree}, expected 1")
            )
        if kind == INTERNAL and degree == 0:
            violations.append(TopologyViolation("isolated", node, "internal node has no edges"))
        if require_simplified and kind == INTERNAL and 0 < degree < 3:
            violations.append(
                TopologyViolation(
                    "internal-degree", node, f"internal node has degree {degree} after simplification"
                )
            )
    if not topology.monitors:
        violations.append(TopologyViolation("no-monitors", "-", "topology has no monitor nodes"))
    return violations


class EquivalentChannel(NamedTuple):
    """A contracted path of degree-2-joined edges treated as one channel."""

    edge_ids: tuple[str, ...]
    node_a: str
    node_b: str
    composite: PauliChannel


def simplify_degree2(topology: Topology) -> tuple[Topology, list[EquivalentChannel]]:
    """Contract every maximal path of degree-2 internal nodes.

    Each contracted path becomes a single edge whose channel is the ordered
    composite of its members; edge count is conserved in the sense that
    original edges = surviving simple edges + sum of path lengths.  A cycle
    made entirely of degree-2 nodes has no anchoring endpoint and is
    rejected.  A topology with nothing to contract comes back as it is.
    """
    interior = {
        node for node, kind in topology.nodes.items()
        if kind == INTERNAL and topology.degree(node) == 2
    }
    if not interior:
        return topology, []
    consumed: set[str] = set()
    equivalents: list[EquivalentChannel] = []
    surviving: list[Edge] = []

    for edge_id in topology.sorted_edge_ids():
        if edge_id in consumed:
            continue
        edge = topology.edges[edge_id]
        if edge.node_a not in interior and edge.node_b not in interior:
            surviving.append(edge)
            continue
        # Walk to both ends of the chain, leaving each interior by its other
        # edge; such a walk can only come back to edge_id, round a pure cycle.
        ends = []
        for node in (edge.node_a, edge.node_b):
            prev_edge, segment = edge_id, []
            while node in interior:
                (first, after_first), (second, after_second) = topology._adjacency[node]
                prev_edge, node = (second, after_second) if prev_edge == first else (first, after_first)
                if prev_edge == edge_id:
                    raise TopologyError("cycle composed entirely of degree-2 nodes is unsupported")
                segment.append(prev_edge)
            ends.append((node, segment))
        (end_a, seg_a), (end_b, seg_b) = ends
        if end_a == end_b:
            # A degree-2 cycle hanging off a single anchor would contract to
            # a self-loop, which no protocol can characterize.
            raise TopologyError(f"degree-2 cycle attached to node {end_a!r} is unsupported")
        ordered = [*reversed(seg_a), edge_id, *seg_b]
        consumed.update(ordered)
        composite = compose_channels(topology.edges[member].channel for member in ordered)
        equivalents.append(EquivalentChannel(tuple(ordered), end_a, end_b, composite))

    nodes = {n: kind for n, kind in topology.nodes.items() if n not in interior}
    contracted = (Edge("+".join(eq.edge_ids), eq.node_a, eq.node_b, eq.composite) for eq in equivalents)
    return Topology(nodes, [*surviving, *contracted]), equivalents


class BranchSelection(NamedTuple):
    """Two physically disjoint monitor-reaching branches for Mergecast.

    ``path_a2`` and ``path_b`` run from the merge node to effective
    monitors; ``chain_a2`` / ``chain_b`` extend them through identified
    edges to real monitors (empty when the terminal is already real).
    """

    merge_node: str
    target_chain: tuple[str, ...]
    path_a2: tuple[str, ...]
    chain_a2: tuple[str, ...]
    path_b: tuple[str, ...]
    chain_b: tuple[str, ...]

    @property
    def full_a2(self) -> tuple[str, ...]:
        return self.path_a2 + self.chain_a2

    @property
    def full_b(self) -> tuple[str, ...]:
        return self.path_b + self.chain_b


def _ranked_monitors(
    topology: Topology,
    chains: Mapping[str, tuple[str, ...]],
    start: str,
    blocked_edges: set,
) -> Iterator[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """Yield ``(monitor, path, chain)`` for effective monitors reachable from ``start``.

    ``path`` is the BFS-shortest edge path avoiding ``blocked_edges`` (it
    stops at the first monitor reached, so interior nodes are never
    monitors; natural edge order breaks ties) and ``chain`` the monitor's
    identified chain.  Monitors come shortest physical branch first
    (``len(path) + len(chain)``), then in natural name order, then in
    discovery order.  The BFS advances one level at a time and only as far
    as the caller pulls: once level ``d`` is expanded every undiscovered
    monitor ranks at least ``d + 2``, so queued monitors ranked ``d + 1`` or
    better are final.
    """
    adjacency = topology._adjacency
    keys = topology._keys
    # Every node reached, monitors included: the start is never yielded, a monitor
    # is queued once, and len(parent) grows with each push, so it is the heap's
    # discovery counter.
    parent: dict[str, Optional[tuple[str, str]]] = {start: None}
    heap: list = []
    level = [start]
    depth = 0
    while level:
        next_level = []
        for node in level:
            for edge_id, other in adjacency[node]:
                if edge_id in blocked_edges or other in parent:
                    continue
                parent[other] = (node, edge_id)
                if other in chains:
                    heapq.heappush(heap, (depth + 1 + len(chains[other]), keys[other], len(parent), other))
                else:
                    next_level.append(other)
        level = next_level
        depth += 1
        # With no level left to expand, every queued monitor is final.
        while heap and (not level or heap[0][0] <= depth):
            _, _, _, monitor = heapq.heappop(heap)
            path, node = [], monitor
            while parent[node] is not None:
                node, edge_id = parent[node]
                path.append(edge_id)
            yield monitor, tuple(reversed(path)), chains[monitor]


def select_mergecast_branches(
    topology: Topology,
    chains: Mapping[str, tuple[str, ...]],
    target: str,
) -> BranchSelection:
    """Pick the two Mergecast branches for a frontier edge.

    ``chains`` maps each effective monitor to its node-outward chain of
    identified edges back to a real monitor (``()`` for a real monitor).
    The target edge must have an endpoint in the effective monitors; the
    merge happens at the other endpoint.  Branches are edge-disjoint from
    each other, from the target, and from the identified chains backing
    every involved effective monitor, so the three physical qubit paths of
    a run never share a channel.  Selection is deterministic:
    BFS-shortest branches are tried shortest physical branch first (the
    identified chain behind the monitor included), then in natural monitor
    name order, and the first edge-disjoint pair wins.
    """
    edge = topology.edges[target]
    a, b = edge.node_a, edge.node_b
    candidates = [(outer, center) for outer, center in ((a, b), (b, a)) if outer in chains]
    if not candidates:
        raise BranchSelectionError(f"target {target!r} has no endpoint in the effective monitors")
    if len(candidates) == 2:
        candidates.sort(key=lambda pair: topology._keys[pair[0]])

    for outer, center in candidates:
        target_chain = chains[outer]
        reserved = {target}.union(target_chain)
        for monitor_a, path_a, chain_a in _ranked_monitors(topology, chains, center, reserved):
            if monitor_a == outer:
                continue
            used = reserved.union(path_a, chain_a)
            if len(used) != len(reserved) + len(path_a) + len(chain_a):
                continue
            for monitor_b, path_b, chain_b in _ranked_monitors(topology, chains, center, used):
                if monitor_b in (outer, monitor_a):
                    continue
                if len(used.union(path_b, chain_b)) != len(used) + len(path_b) + len(chain_b):
                    continue
                return BranchSelection(center, target_chain, path_a, chain_a, path_b, chain_b)
        last_error = (
            f"merge node {center!r} cannot reach two distinct effective monitors "
            f"on edge-disjoint paths avoiding target {target!r}"
        )
    raise BranchSelectionError(last_error)


def etching_rounds(topology: Topology) -> Iterator[list[tuple[str, BranchSelection]]]:
    """Yield the rounds of progressive etching as ``[(target, selection), ...]``.

    ``chains``, the only state, maps each effective monitor to its node-outward
    chain of identified edges (``()`` for a real monitor).  A round is the
    unidentified edges at the effective monitors in natural edge order, with one
    branch selection per target made before the round is yielded.  Once the
    caller has taken a round, its edges count as identified and each merge node
    becomes an effective monitor whose chain runs through the target; a node
    promoted in a round is not visible within it, and the first promotion wins.
    """
    chains = dict.fromkeys(topology.monitors, ())
    rank = {e: i for i, e in enumerate(topology.sorted_edge_ids())}  # equal keys keep insertion order
    promoted, frontier = topology.monitors, ()
    while True:
        # A round takes its whole frontier or raises, so edges at older effective
        # monitors are all identified; a node promoted last round has no identified
        # edges but that round's targets (the previous frontier).
        frontier = sorted({e for node in promoted for e, _ in topology._adjacency[node]}
                          .difference(frontier), key=rank.__getitem__)
        if not frontier:
            return
        selections = [(t, select_mergecast_branches(topology, chains, t)) for t in frontier]
        yield selections
        promoted = {selection.merge_node for _, selection in selections} - chains.keys()
        for target, selection in selections:
            chains.setdefault(selection.merge_node, (target, *selection.target_chain))
