"""Run one `contactnet experiment` in-process with timing wrappers around each layer.

Usage: python traced.py <config.json> <spans_out.json>

The wrappers replace the module-level names through which `harness` and
`community` call into the package's modules, so the program's own code is
unchanged. Each call records a span (name, start, end, parent span index).
Spans stay in memory and are written to <spans_out.json> when the run ends,
together with the few return values the layer metrics are read from.

A name missing from its module is reported in "unwrapped": a refactor that
routes around a wrapper shows as an absent layer, never as a layer that took 0 s.
"""

from __future__ import annotations

import json
import sys
import time

import contactnet.community as community
import contactnet.harness as harness

# (module, attribute, span name): the calls into each layer's public functions
WRAPPED = (
    (harness, "run_experiment", "harness.run"),
    (harness, "write_artifacts", "harness.write"),
    (harness, "read_graph", "graph.read"),
    (harness, "degree_stats", "graph.summary"),
    (harness, "density", "graph.summary"),
    (harness, "clustering_coefficient", "graph.summary"),
    (harness, "spectral_cluster", "community.cluster"),
    (community, "regularized_laplacian", "community.laplacian"),
    (community, "symmetric_eigendecomposition", "community.eigh"),
    (community, "kmeans", "community.kmeans"),
    (harness, "fit_er", "models.fit"),
    (harness, "fit_degree", "models.fit"),
    (harness, "fit_sbm", "models.fit"),
    (harness, "fit_dcsbm", "models.fit"),
    (harness, "sample_graph", "models.sample"),
    (harness, "log_likelihood_per_pair", "models.loglik"),
    (harness, "derived_rng", "seeding.derived_rng"),
    (harness, "simulate_sir", "sir.simulate"),
    (harness, "area_between", "metrics.area"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index], -1 for the root
        self.stack = [-1]
        self.results = {}  # span name -> returned values kept for the metrics

    def wrap(self, module, attr: str, name: str, keep=None) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack
        kept = self.results.setdefault(name, []) if keep else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if kept is not None:
                kept.append(keep(result))
            return result

        setattr(module, attr, traced)


# return values the layer metrics need, reduced to what JSON can carry
KEEP = {
    "community.cluster": lambda partition: partition.k,
    "sir.simulate": lambda traj: traj.i_counts,
}


def main(argv) -> int:
    config_path, spans_path = argv
    tracer = Tracer()
    unwrapped = []
    for module, attr, name in WRAPPED:
        if hasattr(module, attr):
            tracer.wrap(module, attr, name, KEEP.get(name))
        else:
            unwrapped.append(f"{module.__name__}.{attr}")
    harness.run_experiment(harness.load_config(config_path))
    results = dict(tracer.results)
    if "sir.simulate" in results:
        # per run: transitions taken while someone was infectious, and absorption
        steps = [int((i_counts[:-1] > 0).sum()) for i_counts in results["sir.simulate"]]
        absorbed = [int(i_counts[-1] == 0) for i_counts in results["sir.simulate"]]
        results["sir.simulate"] = {"run_steps": steps, "absorbed": absorbed}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "results": results, "unwrapped": unwrapped}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
