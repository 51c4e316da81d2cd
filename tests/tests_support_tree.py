"""Trees shaped like the etch benchmark's: internal degree >= 3, monitors on the leaves."""

import random

from qnt.network import Edge, Topology
from qnt.pauli import PauliChannel

FLIP_PROB_RANGE = (0.0025, 0.025)  # per-Pauli flip probability, so every q lies in [0.9, 0.99]


def benchmark_tree(seed: int, n_edges: int) -> Topology:
    """A tree of exactly ``n_edges`` edges, grown from a degree-3 root by turning a random
    leaf into an internal node with two or three new leaves (the last edge goes to a
    random internal node), each edge's channel drawn from FLIP_PROB_RANGE."""
    rng = random.Random(seed)
    kinds = {"N0": "internal"}
    internal = ["N0"]
    leaves: list[str] = []
    links: list[tuple[str, str]] = []

    def attach(parent: str) -> None:
        child = f"N{len(kinds)}"
        kinds[child] = "monitor"
        leaves.append(child)
        links.append((parent, child))

    for _ in range(3):
        attach("N0")
    while len(links) < n_edges:
        left = n_edges - len(links)
        if left == 1:
            attach(rng.choice(internal))  # raises a degree that is already >= 3
            continue
        pick = rng.randrange(len(leaves))
        leaves[pick], leaves[-1] = leaves[-1], leaves[pick]
        node = leaves.pop()
        kinds[node] = "internal"
        internal.append(node)
        for _ in range(min(rng.choice((2, 3)), left)):
            attach(node)

    edges = []
    for i, (node_a, node_b) in enumerate(links):
        p_x, p_y, p_z = (rng.uniform(*FLIP_PROB_RANGE) for _ in range(3))
        channel = PauliChannel.from_probabilities(p_x, p_y, p_z)
        edges.append(Edge(f"E{i}", node_a, node_b, channel))
    return Topology(kinds, edges)
