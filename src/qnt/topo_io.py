"""Line-oriented topology files.

Text schema (one declaration per line, ``#`` comments and blank lines
allowed):

    node <id> monitor|internal
    edge <id> <nodeA> <nodeB> <q_x> <q_y> <q_z>

Node lines must precede the edges that reference them.  Channel parameters
are validated on load (range and complete positivity), and every parse
error reports the offending line number.
"""

from __future__ import annotations

from importlib import resources

from .network import Edge, Topology
from .pauli import ChannelValidationError, PauliChannel


class TopologyParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_topology(text: str) -> Topology:
    """Parse the text schema into a validated :class:`Topology`."""
    nodes: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "node":
            if len(fields) != 3:
                raise TopologyParseError(line_no, "expected: node <id> monitor|internal")
            _, node_id, role = fields
            if role not in ("monitor", "internal"):
                raise TopologyParseError(line_no, f"unknown node kind {role!r}")
            if node_id in nodes:
                raise TopologyParseError(line_no, f"duplicate node id {node_id!r}")
            nodes[node_id] = role
        elif kind == "edge":
            if len(fields) != 7:
                raise TopologyParseError(
                    line_no, "expected: edge <id> <nodeA> <nodeB> <q_x> <q_y> <q_z>"
                )
            _, edge_id, node_a, node_b, q_x, q_y, q_z = fields
            if edge_id in edges:
                raise TopologyParseError(line_no, f"duplicate edge id {edge_id!r}")
            if node_a not in nodes or node_b not in nodes:
                unknown = node_b if node_a in nodes else node_a
                raise TopologyParseError(line_no, f"unknown node reference {unknown!r}")
            try:
                q = float(q_x), float(q_y), float(q_z)
            except ValueError:
                raise TopologyParseError(line_no, f"non-numeric channel parameters {fields[4:]!r}") from None
            try:
                channel = PauliChannel(*q)
            except ChannelValidationError as exc:
                raise TopologyParseError(line_no, f"invalid channel: {exc}") from None
            edges[edge_id] = Edge(edge_id, node_a, node_b, channel)
        else:
            raise TopologyParseError(line_no, f"unknown declaration {kind!r}")
    if not nodes:
        raise TopologyParseError(0, "file declares no nodes")
    return Topology(nodes, edges.values())


def format_topology(topology: Topology) -> str:
    """Render a topology back into the text schema (sorted, diff-friendly)."""
    lines = []
    for node in sorted(topology.nodes, key=topology.sort_key):
        lines.append(f"node {node} {topology.nodes[node]}")
    for edge_id in topology.sorted_edge_ids():
        edge = topology.edges[edge_id]
        q = edge.channel
        lines.append(
            f"edge {edge_id} {edge.node_a} {edge.node_b} {q.q_x:.17g} {q.q_y:.17g} {q.q_z:.17g}"
        )
    return "\n".join(lines) + "\n"


def load_topology(path: str) -> Topology:
    """Parse the topology file at ``path``; a UTF-8 byte-order mark at its start is skipped."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_topology(handle.read())


def bundled_topology(name: str) -> Topology:
    """Load one of the packaged example topologies (e.g. ``fig1``, ``star3``)."""
    text = resources.files("qnt.data").joinpath(f"{name}.topo").read_text(encoding="utf-8-sig")
    return parse_topology(text)
