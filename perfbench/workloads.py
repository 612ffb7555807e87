"""Workload definitions and the seeded input generator of the contactnet benchmark.

The generator is the benchmark's own numpy code, not contactnet's sampler, so a
change to the package's sampler cannot change the inputs a workload runs on.
The program under test receives only the edge-list file and the config JSON
written here.

Why each workload exists (each experiment process takes about 1.5-2.5 s on 2
cores, so a 40 s run holds ten or more of them and reports their median; the
run-to-run spread of that median falls with the number of experiments in it):

museum201
    The paper's protocol at the reference dataset's size: 201 nodes of
    density about 0.031 in 3 degree-heterogeneous communities, all four
    models, default SIR, 1250 epidemics on the real graph and 5 sampled
    networks x 50 epidemics per model (the defaults are 5000 and 100 x 50;
    a quarter of the real-graph runs and a twentieth of the sampled networks
    keep a 40 s run to ten or more samples). It is bound by epidemic
    simulation (four in five epidemics are still active after 30 steps) and
    barely touches the dense layers, so it exercises any change to the
    ensemble kernel.
sparse1200
    1200 nodes of average degree 8 in 8 planted degree-heterogeneous
    communities, all four models and a small ensemble (200 + 4 x 25). It is
    bound by the dense O(N^2)/O(N^3) layers (eigendecomposition, N x N
    probability matrices, dense triangle counts) that cap the network size,
    and barely uses the ensemble kernel: the workload for the sparse scale
    path. 1200 nodes, not more, so that one experiment stays near 2 s.
dieout_traj
    The museum201 graph shape with beta = 0.02 and gamma = 0.25, so almost
    every epidemic dies out within a few steps, a larger ensemble of small
    network samples (1250 + 50 x 25 per model, 200 sampled networks) and saved
    trajectories. Fixed per-run cost (stream derivation, setup) outweighs
    stepping, many small networks are sampled, and the trajectory CSV writer
    runs. A change that helps long epidemics but costs short ones shows here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Where inputs and outputs live, relative to the checkout root. The paths are
# fixed because report.json echoes them, and its bytes are compared.
WORK_DIR = ".perfbench_run"

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    n_edges: int  # expected edge count the generator aims for
    communities: int
    within_ratio: float  # within-community rate over between-community rate
    degree_sigma: float  # lognormal spread of the node propensities
    sir: dict
    ensemble: dict
    save_trajectories: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="museum201",
            n_nodes=201,
            n_edges=round(0.031 * math.comb(201, 2)),
            communities=3,
            within_ratio=40.0,
            degree_sigma=0.5,
            sir={},
            ensemble={"actual_runs": 1250, "sampled_networks": 5, "runs_per_network": 50},
            save_trajectories=False,
        ),
        Workload(
            name="sparse1200",
            n_nodes=1200,
            n_edges=4800,
            communities=8,
            within_ratio=40.0,
            degree_sigma=0.6,
            sir={},
            ensemble={"actual_runs": 200, "sampled_networks": 4, "runs_per_network": 25},
            save_trajectories=False,
        ),
        Workload(
            name="dieout_traj",
            n_nodes=201,
            n_edges=round(0.031 * math.comb(201, 2)),
            communities=3,
            within_ratio=40.0,
            degree_sigma=0.5,
            sir={"infection_probability": 0.02, "recovery_probability": 0.25},
            ensemble={"actual_runs": 1250, "sampled_networks": 50, "runs_per_network": 25},
            save_trajectories=True,
        ),
    )
}


def generate_edges(w: Workload, seed: int) -> np.ndarray:
    """Edges (i < j) of a degree-corrected planted-partition graph drawn from `seed`.

    Node i gets a community (round-robin over a shuffled order, so sizes
    differ by at most one) and a lognormal propensity; pair (i, j) is an edge
    with probability min(1, c * theta_i * theta_j * omega), omega being
    `within_ratio` inside a community and 1 across, with c chosen so the
    expected edge count is `n_edges` before capping.
    """
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    n = w.n_nodes
    community = np.empty(n, dtype=np.int64)
    community[rng.permutation(n)] = np.arange(n) % w.communities
    theta = rng.lognormal(0.0, w.degree_sigma, size=n)
    rows, cols = np.triu_indices(n, 1)
    weight = theta[rows] * theta[cols]
    weight *= np.where(community[rows] == community[cols], w.within_ratio, 1.0)
    probs = np.minimum(1.0, weight * (w.n_edges / weight.sum()))
    keep = rng.random(len(probs)) < probs
    return np.column_stack((rows[keep], cols[keep]))


def write_inputs(w: Workload, seed: int, root: Path) -> dict:
    """Write the workload's edge list and config under `root`; return the input summary.

    Returned paths are relative to `root`, the directory the program runs in.
    """
    base = Path(WORK_DIR) / w.name
    (root / base).mkdir(parents=True, exist_ok=True)
    edges = generate_edges(w, seed)
    graph_path = base / "graph.edges"
    with open(root / graph_path, "w", encoding="utf-8") as fh:
        fh.write(f"%N {w.n_nodes}\n")
        fh.writelines(f"{i} {j}\n" for i, j in edges)
    config = {
        "dataset": {"path": graph_path.as_posix(), "format": "edge_list"},
        "sir": w.sir,
        "ensemble": w.ensemble,
        "master_seed": seed,
        "output_dir": (base / "out").as_posix(),
        "save_trajectories": w.save_trajectories,
    }
    config_path = base / "config.json"
    with open(root / config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return {
        "config": config_path.as_posix(),
        "output_dir": config["output_dir"],
        "n_nodes": w.n_nodes,
        "n_edges": int(len(edges)),
        "density": len(edges) / math.comb(w.n_nodes, 2),
    }
