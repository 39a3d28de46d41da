#!/usr/bin/env python3
"""iRF-LOOP on census-like data (§II-B / §V-D / Figures 6-7).

Part 1 runs a *real* iRF-LOOP: a Cheetah campaign over every feature of a
small census-like matrix, executed by the thread-pool RealExecutor
(genuine forest fits), assembled into the all-to-all network and scored
against the planted ground truth.

Part 2 runs the *scale* story on the simulated cluster: the same campaign
shape at 400 features under the original set-synchronized workflow vs the
Cheetah-Savanna dynamic pilot.

Run:  python examples/irf_loop_census.py
"""

import numpy as np

from repro.apps.irf import census_like, duration_model, irf_loop, precision_at_k
from repro.apps.irf.network import network_from_adjacency
from repro.cheetah import AppSpec, Campaign, RangeParameter, Sweep
from repro.cluster import ClusterSpec, SimulatedCluster
from repro.savanna import PilotExecutor, RealExecutor, StaticSetExecutor, tasks_from_manifest


def real_irf_loop() -> None:
    print("== Part 1: real iRF-LOOP on a 16-feature census-like matrix ==")
    data = census_like(n_features=16, n_samples=240, noise=0.25, seed=7)

    # Compose the campaign: one run per target feature.
    campaign = Campaign("irf-loop-demo", app=AppSpec("irf"))
    group = campaign.sweep_group("features", nodes=4, walltime=3600.0)
    group.add(Sweep([RangeParameter("feature", 0, data.n_features)]))
    manifest = campaign.to_manifest()

    # Each run really fits an iRF for its target column.
    def fit_one(params: dict) -> np.ndarray:
        result = irf_loop(
            data.X,
            targets=[params["feature"]],
            n_iterations=2,
            n_estimators=8,
            max_depth=5,
            seed=params["feature"],
        )
        return result.adjacency[:, params["feature"]]

    results = RealExecutor(max_workers=4).execute(manifest, fit_one).results
    print(f"executed {len(results)} iRF runs "
          f"({sum(r.status == 'done' for r in results.values())} succeeded)")

    # Assemble the n x n network from the per-run importance columns.
    adjacency = np.zeros((data.n_features, data.n_features))
    for run in manifest.runs:
        adjacency[:, run.parameters["feature"]] = results[run.run_id].value

    k = len(data.true_edges) // 2
    precision = precision_at_k(adjacency, data.true_edges, k=k)
    graph = network_from_adjacency(adjacency, data.feature_names, k=k)
    print(f"network: {graph.number_of_edges()} edges; precision@{k} vs "
          f"planted truth = {precision:.0%}\n")


def simulated_campaign() -> None:
    print("== Part 2: 400-feature campaign on the simulated 20-node cluster ==")
    campaign = Campaign("irf-loop-sim", app=AppSpec("irf"))
    group = campaign.sweep_group("features", nodes=20, walltime=7200.0)
    group.add(Sweep([RangeParameter("feature", 0, 400)]))
    manifest = campaign.to_manifest()

    for label, make, gap in (
        ("original (set-synchronized)", lambda c: StaticSetExecutor(c, set_gap=60.0), 3600.0),
        ("cheetah-savanna (dynamic)  ", lambda c: PilotExecutor(c), 0.0),
    ):
        cluster = SimulatedCluster(
            ClusterSpec(nodes=20, queue_sigma=0.0, queue_median_wait=120.0), seed=33
        )
        tasks = tasks_from_manifest(
            manifest, duration_model(median_seconds=360.0, sigma=1.4,
                                     max_seconds=6480.0, seed=33)
        )
        result = make(cluster).run(
            tasks, nodes=20, walltime=7200.0, max_allocations=60,
            inter_allocation_gap=gap,
        )
        print(
            f"  {label}: {result.mean_completed_per_allocation():6.1f} params/allocation, "
            f"{len(result.outcomes):3d} allocations, "
            f"campaign makespan {result.makespan() / 3600:6.1f} h"
        )


if __name__ == "__main__":
    real_irf_loop()
    simulated_campaign()
