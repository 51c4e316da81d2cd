"""Progressive etching on the bundled 19-edge benchmark network.

The sweep identifies peripheral channels first, promotes their inner
endpoints to effective monitors, and repeats until the central channel
falls.  Earlier estimates feed later corrections, so error accumulates
from the periphery inward.  The rounds, branches and protocol
probabilities do not depend on the samples or the seed, so one plan
serves every trial.

Run:  python demos/03_progressive_etching.py
"""

import numpy as np

from qnt import SpamModel, bundled_topology, simplify_degree2
from qnt.network import natural_key
from qnt.protocols import plan_etching, sample_etching
from qnt.stats import substream

topology = bundled_topology("fig1")
topology, equivalents = simplify_degree2(topology)
print(f"network: {len(topology.edges)} channels, {len(topology.monitors)} monitors")

plan = plan_etching(topology, SpamModel(1.0, 1.0), bases=("Z",))
print("\nidentification order (step: channels):")
for step, (targets, *_) in enumerate(plan.rounds, start=1):
    print(f"  step {step}: {sorted(targets, key=natural_key)}")

print("\nper-step q_Z error across 40 trials (all true values 0.8):")
trials = 40
per_edge = {e: [] for e in topology.edges}
for trial in range(trials):
    seed = int(substream(2024, "demo-etch", trial).integers(0, 2**63))
    result = sample_etching(plan, (10_000, 10_000), seed)
    for edge, est in result.estimates.items():
        per_edge[edge].append(est.q_z)
for step, (targets, *_) in enumerate(plan.rounds, start=1):
    errors = np.concatenate([np.array(per_edge[e]) - 0.8 for e in targets])
    print(f"  step {step}: mean squared error {np.mean(errors**2):.2e}")
