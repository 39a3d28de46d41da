#!/usr/bin/env python3
"""A codesign campaign with objectives and a queryable catalog (§II-C).

Sweeps checkpoint-middleware parameters (policy family x overhead budget
x compute intensity) over the simulated system, collects per-run metrics
into the campaign catalog, and answers the §II-C questions: which
configuration is best under each declared objective, what the
runtime/resilience Pareto front looks like, and which parameter actually
matters for each metric.

Run:  python examples/codesign_campaign.py
"""

from repro.apps.simulation import (
    CheckpointedRun,
    FixedIntervalPolicy,
    OverheadBudgetPolicy,
    RunConfig,
    expected_lost_work,
)
from repro.cheetah import (
    AppSpec,
    Campaign,
    CampaignCatalog,
    Direction,
    Objective,
    Sweep,
    SweepParameter,
)
from repro.savanna import RealExecutor


def main() -> None:
    # -- 1. Compose the codesign campaign: parameters across layers. -------
    campaign = Campaign(
        "checkpoint-codesign",
        app=AppSpec("reaction-diffusion"),
        objective="trade checkpoint overhead against failure resilience",
    )
    group = campaign.sweep_group("policies", nodes=1, walltime=3600.0)
    group.add(
        Sweep(
            [
                SweepParameter("policy", ["fixed", "budget"]),
                SweepParameter("knob", [2, 5, 10, 20]),  # interval or budget %
                SweepParameter("intensity", [0.8, 1.0, 1.2]),
            ]
        )
    )
    manifest = campaign.to_manifest()
    print(f"campaign {manifest.campaign!r}: {len(manifest)} configurations")

    # -- 2. Execute every configuration (really) and measure. ---------------
    def run_one(params: dict) -> dict:
        config = RunConfig(grid_n=32, compute_intensity=params["intensity"])
        if params["policy"] == "fixed":
            policy = FixedIntervalPolicy(params["knob"])
        else:
            policy = OverheadBudgetPolicy(params["knob"] / 100.0)
        report = CheckpointedRun(config, policy, seed=17).execute()
        return {
            "runtime_seconds": report.total_seconds,
            "io_seconds": report.io_seconds,
            "checkpoints": report.checkpoints_written,
            "expected_lost_steps": expected_lost_work(
                report.checkpoint_timesteps, config.timesteps
            ),
        }

    results = RealExecutor(max_workers=4).execute(manifest, run_one).results

    # -- 3. Build the catalog: the campaign's queryable product. -------------
    catalog = CampaignCatalog(manifest.campaign)
    for run in manifest.runs:
        catalog.add(run.run_id, run.parameters, results[run.run_id].value)
    print(f"catalog holds {len(catalog)} runs with metrics {sorted(catalog.metric_names())}\n")

    # -- 4. Declared objectives. ----------------------------------------------
    fast = Objective("optimal-runtime", "runtime_seconds", Direction.MINIMIZE)
    resilient = Objective("minimal-lost-work", "expected_lost_steps", Direction.MINIMIZE)

    print("== best configuration per objective ==")
    for objective in (fast, resilient):
        best = catalog.best(objective)
        print(
            f"  {objective.name:18s} -> {best.parameters} "
            f"({objective.metric}={best.metric(objective.metric):.1f})"
        )

    print("\n== runtime / resilience Pareto front ==")
    for record in catalog.pareto_front([fast, resilient]):
        print(
            f"  {record.parameters}  runtime={record.metric('runtime_seconds'):7.1f}s "
            f"E[lost]={record.metric('expected_lost_steps'):.1f} steps"
        )

    print("\n== which parameter matters for which metric ==")
    for metric in ("runtime_seconds", "expected_lost_steps"):
        ranking = catalog.impact_ranking(metric)
        ranked = ", ".join(f"{p} (effect {e:.2f})" for p, e in ranking)
        print(f"  {metric:20s}: {ranked}")


if __name__ == "__main__":
    main()
