"""The merge protocol over lossy fibers with a decohering quantum memory.

Photons survive each 10 km fiber with probability (1 - 0.5) e^{-0.5} =
30.3%.  A lone survivor waits at the merge node, relaxing (T1 = 10 s) and
dephasing (T2 = 1 s), and is discarded after the cutoff T_c.  Longer
cutoffs merge more qubits but inject memory noise into the estimate.

Run:  python demos/05_lossy_memory.py    (a few seconds)
"""

import numpy as np

from qnt import FiberParams, MemoryParams, PauliChannel, Schedule, run_loss_experiment, survival_prob
from qnt.stats import substream

channels = (
    PauliChannel(0.5, 0.5, 0.5),
    PauliChannel(0.25, 0.25, 0.25),
    PauliChannel(0.35, 0.35, 0.35),
)
fiber = FiberParams(length_km=10.0, speed_km_per_s=2e5, p0=0.5, alpha_per_km=0.05)
print(f"per-fiber survival: {survival_prob(fiber):.4f} ({(1 - survival_prob(fiber)) * 100:.1f}% loss)")

trials = 30
print(f"\n{'T_send':>7} {'T_c':>6} {'merged':>8} {'received':>9} {'MSE(q_Z,1)':>11}")
for t_send in (0.1, 0.5, 0.9):
    schedule = Schedule(send_interval_s=t_send, horizon_s=3600.0)
    for t_c in (0.05, 0.35, 5.0):
        memory = MemoryParams(t1_s=10.0, t2_s=1.0, cutoff_s=t_c)
        merged, received, errors = [], [], []
        for trial in range(trials):
            seed = int(substream(99, "demo-loss", trial).integers(0, 2**63))
            run = run_loss_experiment(channels, fiber, memory, schedule, seed=seed)
            merged.append(run.merged_count)
            received.append(run.received_count)
            errors.append((run.estimate - 0.5) ** 2)
        print(
            f"{t_send:>7.1f} {t_c:>6.2f} {np.mean(merged):>8.0f} "
            f"{np.mean(received):>9.0f} {np.mean(errors):>11.3e}"
        )

print(
    "\nNote: at fixed T_send, every cutoff below the send interval produces\n"
    "identical runs (all waits are whole send periods), while large cutoffs\n"
    "merge more qubits at the price of decoherence bias."
)
