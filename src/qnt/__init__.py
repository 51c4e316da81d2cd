"""Quantum network tomography toolkit.

Identifies the Pauli-channel parameters of every link in an
arbitrary-topology quantum network from peripheral operations only:
merge-based protocols break the sign ambiguity of unicast products,
progressive etching sweeps from the periphery inward, SPAM errors are
estimated in-network and divided out, and a lossy-fiber mode simulates the
protocol under photon loss and memory decoherence.
"""

from .pauli import (
    Dressing,
    GateKind,
    PauliChannel,
    PauliVector1Q,
    PauliVector2Q,
    apply_cnot,
    apply_ptm,
    compose_channels,
    dress_channel,
    is_bypassable,
    partial_trace,
    ptm_of_channel,
    tensor,
    z_measurement_probs,
)
from .network import (
    Edge,
    Topology,
    etching_rounds,
    select_mergecast_branches,
    simplify_degree2,
    validate,
)
from .protocols import (
    SpamModel,
    bypass_unicast_prob,
    estimate_m,
    estimate_q_mergecast,
    estimate_s,
    merge_and_unicast_probs,
    mergecast_prob,
    run_progressive_etching,
    sample_protocol,
    spam_m_protocol_probs,
    spam_ms_bypass_prob,
    spam_s_protocol_prob,
    unicast_prob,
)
from .stats import aggregate_mse, crb_mergecast, crb_spam_m, crb_spam_s, substream
from .lossy import FiberParams, MemoryParams, Schedule, decohere, run_loss_experiment, survival_prob
from .topo_io import bundled_topology, load_topology, parse_topology

__version__ = "0.1.0"
