"""Report diffing: did this change regress the campaign?

Two report sets (each from :func:`~repro.observability.analysis.streaming.analyze_events`
or loaded from disk) are matched campaign-by-campaign and compared on
the metrics that matter for the paper's figures: makespan, utilization,
queue wait, p95 task duration, critical-path length.  The **gate** is
makespan: ``python -m repro.observability diff A B --fail-on-regression 10``
exits non-zero when any matched campaign's makespan grew more than 10%
over baseline (or a baseline campaign disappeared) — a CI job can hold
the line on the ROADMAP's "every PR makes hot paths measurably faster".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability.analysis.report import CampaignReport

#: (label, extractor, higher_is_better) rows rendered per campaign.
_METRICS = (
    ("makespan", lambda r: r.makespan, False),
    ("utilization", lambda r: r.utilization.get("utilization"), True),
    ("queue_wait", lambda r: r.attribution.get("wall_clock", {}).get("queue_wait"), False),
    ("retry_backoff", lambda r: r.attribution.get("retry_backoff"), False),
    ("p95_task_duration", lambda r: r.durations.get("p95"), False),
    ("critical_path", lambda r: r.critical_path_seconds, False),
    ("tasks_done", lambda r: r.counts.get("done"), True),
    ("stragglers", lambda r: len(r.stragglers), False),
)


@dataclass
class CampaignDiff:
    """One matched campaign's metric deltas."""

    campaign: str
    rows: list = field(default_factory=list)  # {metric, baseline, candidate, delta, pct}
    makespan_pct: float | None = None

    def regressed(self, threshold_pct: float) -> bool:
        return self.makespan_pct is not None and self.makespan_pct > threshold_pct


@dataclass
class ReportDiff:
    """Baseline vs candidate across every matched campaign."""

    diffs: list = field(default_factory=list)  # list[CampaignDiff]
    missing: list = field(default_factory=list)  # baseline campaigns not in candidate
    added: list = field(default_factory=list)  # candidate campaigns not in baseline

    def regressions(self, threshold_pct: float) -> list[str]:
        """Human-readable regression lines; empty means the gate passes."""
        problems = [
            f"{d.campaign}: makespan +{d.makespan_pct:.1f}% over baseline "
            f"(threshold {threshold_pct:g}%)"
            for d in self.diffs
            if d.regressed(threshold_pct)
        ]
        problems.extend(
            f"{name}: present in baseline but missing from candidate" for name in self.missing
        )
        return problems

    def to_dict(self) -> dict:
        return {
            "campaigns": [
                {
                    "campaign": d.campaign,
                    "makespan_pct": d.makespan_pct,
                    "metrics": d.rows,
                }
                for d in self.diffs
            ],
            "missing": self.missing,
            "added": self.added,
        }

    def to_text(self) -> str:
        lines = []
        for d in self.diffs:
            lines.append(f"== diff: {d.campaign} ==")
            header = f"{'metric':<20}{'baseline':>14}{'candidate':>14}{'delta':>12}{'pct':>9}"
            lines.append(header)
            lines.append("-" * len(header))
            for row in d.rows:
                base, cand = row["baseline"], row["candidate"]
                fmt = lambda v: "n/a" if v is None else (f"{v:.4g}")
                pct = "" if row["pct"] is None else f"{row['pct']:+.1f}%"
                delta = "" if row["delta"] is None else f"{row['delta']:+.4g}"
                marker = "  <-- regression" if row.get("regression") else ""
                lines.append(
                    f"{row['metric']:<20}{fmt(base):>14}{fmt(cand):>14}"
                    f"{delta:>12}{pct:>9}{marker}"
                )
            lines.append("")
        for name in self.missing:
            lines.append(f"!! {name}: in baseline, missing from candidate")
        for name in self.added:
            lines.append(f"++ {name}: new in candidate (no baseline)")
        return "\n".join(lines).rstrip()


def _labels(reports) -> list[str]:
    """Stable per-report labels: campaign name, disambiguated by order."""
    seen: dict[str, int] = {}
    labels = []
    for r in reports:
        base = r.campaign if r.group is None else f"{r.campaign}/{r.group}"
        n = seen.get(base, 0)
        seen[base] = n + 1
        labels.append(base if n == 0 else f"{base}#{n}")
    return labels


def diff_reports(baseline, candidate) -> ReportDiff:
    """Match report lists by campaign label and compute metric deltas.

    ``baseline``/``candidate`` are lists of :class:`CampaignReport` (or
    dicts, which are upgraded).  Matching is by campaign (+ group) name;
    duplicate names pair up in order, so a two-executor comparison trace
    (Figure 6 runs both) diffs each executor against its counterpart.
    """
    baseline = [r if isinstance(r, CampaignReport) else CampaignReport.from_dict(r) for r in baseline]
    candidate = [r if isinstance(r, CampaignReport) else CampaignReport.from_dict(r) for r in candidate]
    base_by_label = dict(zip(_labels(baseline), baseline))
    cand_by_label = dict(zip(_labels(candidate), candidate))

    out = ReportDiff()
    out.missing = [label for label in base_by_label if label not in cand_by_label]
    out.added = [label for label in cand_by_label if label not in base_by_label]
    for label, base in base_by_label.items():
        cand = cand_by_label.get(label)
        if cand is None:
            continue
        diff = CampaignDiff(campaign=label)
        for metric, extract, higher_is_better in _METRICS:
            b, c = extract(base), extract(cand)
            delta = (c - b) if (b is not None and c is not None) else None
            pct = (100.0 * delta / b) if (delta is not None and b) else None
            worse = (
                delta is not None
                and delta != 0
                and (delta < 0 if higher_is_better else delta > 0)
            )
            diff.rows.append(
                {
                    "metric": metric,
                    "baseline": b,
                    "candidate": c,
                    "delta": delta,
                    "pct": pct,
                    "regression": worse,
                }
            )
            if metric == "makespan":
                diff.makespan_pct = pct
        out.diffs.append(diff)
    return out
