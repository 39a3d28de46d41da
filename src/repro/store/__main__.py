"""``python -m repro.store`` — migrate, query, and export campaign stores.

Commands::

    migrate DIR [DIR ...] [--db PATH]     ingest campaign directories
    query  TARGET best    --metric M [--direction minimize|maximize]
    query  TARGET rank    --metric M [--direction ...] [--k N]
    query  TARGET pareto  --objective M:DIR [--objective M:DIR ...]
    query  TARGET impact  --metric M [--parameter P]
    status TARGET [--campaign NAME]       status counts from SQL
    export DIR [--db PATH]                per-run params.json + result.json files
    info   TARGET                         database path, campaigns, run counts

``TARGET`` (and ``--db``) accept a campaign directory (the store at
``.cheetah/store.sqlite`` is used) or a sqlite file path.  With a
single-campaign store ``--campaign`` may be omitted.  Only ``migrate``
creates a store; the other commands fail on a target without one,
except ``export`` of a campaign directory, which then writes the
``params.json`` files alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cheetah.directory import CampaignDirectory
from repro.cheetah.objectives import Direction, Objective
from repro.store import CampaignStore, StoreError, ingest_directory, export_directory


def _store_target(target: str) -> str:
    """Resolve a CLI target to a sqlite path (campaign dirs point at
    their ``.cheetah/store.sqlite``)."""
    path = Path(target)
    if (path / CampaignDirectory.METADATA_DIR).is_dir():
        return str(path / CampaignDirectory.METADATA_DIR / "store.sqlite")
    return target


def _open_existing(target: str) -> CampaignStore:
    """Open the store ``target`` resolves to, never creating one."""
    path = _store_target(target)
    if not Path(path).is_file():
        raise StoreError(f"no store at {path}")
    return CampaignStore(path)


def _pick_campaign(store: CampaignStore, requested: str | None) -> str:
    campaigns = store.campaigns()
    if requested is not None:
        if requested not in campaigns:
            raise StoreError(
                f"campaign {requested!r} not in store (has: {campaigns})"
            )
        return requested
    if len(campaigns) == 1:
        return campaigns[0]
    raise StoreError(
        f"store holds {len(campaigns)} campaigns {campaigns}; pass --campaign"
    )


def _objective(metric: str, direction: str) -> Objective:
    return Objective(
        name=f"cli-{metric}",
        metric=metric,
        direction=Direction(direction),
    )


def _cmd_migrate(args) -> int:
    db = args.db
    for root in args.directories:
        target = _store_target(db if db is not None else root)
        with CampaignStore(target) as store:
            summary = ingest_directory(store, root)
        print(
            f"migrated {root}: campaign {summary['campaign']!r} "
            f"({summary['runs']} runs, {summary['results']} results, "
            f"{summary['reports']} reports) -> {target}"
        )
    return 0


def _cmd_export(args) -> int:
    for root in args.directories:
        if args.db is None and not Path(_store_target(root)).is_file():
            # No store (a simulated drive's end point): params.json alone.
            written = export_directory(None, root)
        else:
            with _open_existing(args.db or root) as store:
                written = export_directory(store, root)
        print(f"exported {written} result.json files and every run's params.json "
              f"into {root}")
    return 0


def _cmd_status(args) -> int:
    with _open_existing(args.target) as store:
        campaign = _pick_campaign(store, args.campaign)
        counts = store.summary(campaign)
    total = sum(counts.values())
    print(f"campaign {campaign!r}: {total} runs")
    for status in sorted(counts):
        print(f"  {status:10s} {counts[status]}")
    return 0


def _cmd_info(args) -> int:
    target = _store_target(args.target)
    with _open_existing(target) as store:
        print(f"database: {target} (schema v{store.version})")
        for campaign in store.campaigns():
            counts = store.summary(campaign)
            catalog = store.catalog(campaign)
            print(
                f"  {campaign}: {sum(counts.values())} runs, "
                f"{len(catalog)} results, metrics {sorted(catalog.metric_names())}"
            )
    return 0


def _cmd_query(args) -> int:
    with _open_existing(args.target) as store:
        campaign = _pick_campaign(store, args.campaign)
        catalog = store.catalog(campaign)
        if args.what in ("best", "rank") and not args.metric:
            print("query: --metric is required", file=sys.stderr)
            return 2
        if args.what == "best":
            record = catalog.best(_objective(args.metric, args.direction))
            print(f"{record.run_id}  {record.parameters}  "
                  f"{args.metric}={record.metric(args.metric)}")
        elif args.what == "rank":
            for record in catalog.rank(_objective(args.metric, args.direction), k=args.k):
                print(f"{record.run_id}  {args.metric}={record.metric(args.metric)}")
        elif args.what == "pareto":
            if not args.objective:
                print("query pareto: pass --objective METRIC:DIRECTION", file=sys.stderr)
                return 2
            objectives = []
            for spec in args.objective:
                metric, _, direction = spec.partition(":")
                objectives.append(_objective(metric, direction or "minimize"))
            for record in catalog.pareto_front(objectives):
                values = {o.metric: record.metric(o.metric) for o in objectives}
                print(f"{record.run_id}  {values}")
        elif args.what == "impact":
            if not args.metric:
                print("query impact: --metric is required", file=sys.stderr)
                return 2
            if args.parameter:
                impact = catalog.parameter_impact(args.parameter, args.metric)
                print(f"{args.parameter} -> {args.metric}: effect {impact['effect']:.4f} "
                      f"(grand mean {impact['grand_mean']:.4f})")
                for value in sorted(impact["group_means"], key=repr):
                    print(f"  {value!r}: mean {impact['group_means'][value]:.4f}")
            else:
                for parameter, effect in catalog.impact_ranking(args.metric):
                    print(f"{parameter:24s} effect {effect:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Durable campaign/result store: migrate, query, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    migrate = sub.add_parser("migrate", help="ingest campaign directories")
    migrate.add_argument("directories", nargs="+")
    migrate.add_argument("--db", default=None, help="store target (default: in-place)")
    migrate.set_defaults(fn=_cmd_migrate)

    export = sub.add_parser(
        "export", help="per-run params.json + result.json files (the §IV layout)"
    )
    export.add_argument("directories", nargs="+")
    export.add_argument("--db", default=None)
    export.set_defaults(fn=_cmd_export)

    status = sub.add_parser("status", help="status counts from the store")
    status.add_argument("target")
    status.add_argument("--campaign", default=None)
    status.set_defaults(fn=_cmd_status)

    info = sub.add_parser("info", help="database path, campaigns, result counts")
    info.add_argument("target")
    info.set_defaults(fn=_cmd_info)

    query = sub.add_parser("query", help="catalog queries pushed down to SQL")
    query.add_argument("target")
    query.add_argument("what", choices=["best", "rank", "pareto", "impact"])
    query.add_argument("--campaign", default=None)
    query.add_argument("--metric", default=None)
    query.add_argument("--direction", default="minimize",
                       choices=["minimize", "maximize"])
    query.add_argument("--objective", action="append", default=[],
                       metavar="METRIC:DIRECTION")
    query.add_argument("--k", type=int, default=None)
    query.add_argument("--parameter", default=None)
    query.set_defaults(fn=_cmd_query)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StoreError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
