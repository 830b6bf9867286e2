"""Rendering experiment results in the paper's format.

The benchmarks print their measurements with these helpers so that a run of
``pytest benchmarks/ --benchmark-only`` produces the same rows and series the
paper reports (throughput bars per policy, disk-I/O tables, grouping tables,
throughput-over-time series), each next to the paper's own numbers.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentResult


def format_result_table(results: Sequence[ExperimentResult],
                        paper_tps: Optional[Mapping[str, float]] = None,
                        title: str = "") -> str:
    """A throughput table: one row per policy, paper value alongside."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "%-22s %14s %14s %12s %12s %12s" % (
        "policy", "measured tps", "paper tps", "resp (s)", "read KB/txn", "write KB/txn"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        paper_value = ""
        if paper_tps and result.config.policy in paper_tps:
            paper_value = "%.0f" % paper_tps[result.config.policy]
        lines.append(
            "%-22s %14.1f %14s %12.3f %12.1f %12.1f" % (
                result.config.policy,
                result.throughput_tps,
                paper_value,
                result.response_time_s,
                result.read_kb_per_txn,
                result.write_kb_per_txn,
            )
        )
    return "\n".join(lines)


def format_io_table(results: Sequence[ExperimentResult],
                    paper_io: Optional[Mapping[str, Mapping[str, float]]] = None,
                    title: str = "") -> str:
    """A disk-I/O table in the format of Tables 1, 3 and 5."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "%-22s %12s %12s %12s %12s" % (
        "policy", "write KB", "read KB", "paper write", "paper read"
    )
    lines.append(header)
    lines.append("-" * len(header))
    baseline_read = None
    for result in results:
        policy = result.config.policy
        paper_write = paper_read = ""
        if paper_io and policy in paper_io:
            paper_write = "%.0f" % paper_io[policy]["write"]
            paper_read = "%.0f" % paper_io[policy]["read"]
        if baseline_read is None and policy == "LeastConnections":
            baseline_read = result.read_kb_per_txn
        lines.append(
            "%-22s %12.1f %12.1f %12s %12s" % (
                policy, result.write_kb_per_txn, result.read_kb_per_txn,
                paper_write, paper_read,
            )
        )
    if baseline_read and baseline_read > 0:
        lines.append("")
        lines.append("read fraction relative to LeastConnections:")
        for result in results:
            lines.append("  %-20s %.2f" % (result.config.policy,
                                           result.read_kb_per_txn / baseline_read))
    return "\n".join(lines)


def format_grouping_table(groupings: Mapping[str, Sequence[str]],
                          replica_counts: Mapping[str, int],
                          paper_groupings: Optional[Sequence[Tuple[Sequence[str], int]]] = None,
                          title: str = "") -> str:
    """A grouping table in the format of Tables 2 and 4."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("%-70s %s" % ("transaction types (measured grouping)", "replicas"))
    lines.append("-" * 80)
    for group_id in sorted(groupings, key=lambda gid: -replica_counts.get(gid, 0)):
        types = ", ".join(sorted(groupings[group_id]))
        lines.append("%-70s %d" % ("[%s]" % types, replica_counts.get(group_id, 0)))
    if paper_groupings:
        lines.append("")
        lines.append("%-70s %s" % ("paper grouping", "replicas"))
        lines.append("-" * 80)
        for types, count in paper_groupings:
            lines.append("%-70s %d" % ("[%s]" % ", ".join(types), count))
    return "\n".join(lines)


def format_bar_chart(values: Mapping[str, float], title: str = "",
                     width: int = 50) -> str:
    """A crude ASCII bar chart, handy for the memory-sweep figures."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not values:
        return "\n".join(lines)
    peak = max(values.values()) or 1.0
    for label, value in values.items():
        bar = "#" * max(1, int(round(width * value / peak))) if value > 0 else ""
        lines.append("%-28s %8.1f  %s" % (label, value, bar))
    return "\n".join(lines)


def format_series(series: Iterable, title: str = "", every: int = 1) -> str:
    """Render a throughput-over-time series (Figure 6)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("%10s %12s" % ("time (s)", "tps"))
    for i, point in enumerate(series):
        if i % every:
            continue
        lines.append("%10.0f %12.1f" % (point.time, point.throughput_tps))
    return "\n".join(lines)


#: Display order of the abort-reason taxonomy (MetricsCollector.abort_reasons).
ABORT_REASONS = ("certification-conflict", "retry-exhausted",
                 "crash-in-flight", "drain-straggler")


def format_abort_breakdown(results: Sequence[ExperimentResult],
                           title: str = "aborts by reason") -> str:
    """Per-reason abort/failure counts, one row per experiment.

    Replaces the bare abort total: certification conflicts that were retried
    are separated from aborts returned to the client (retry exhausted) and
    from crash/drain failures, which are not certification aborts at all.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "%-28s" % "experiment" + "".join(
        " %14s" % reason.replace("certification-", "cert-")
        for reason in ABORT_REASONS) + " %10s" % "total"
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        reasons = result.abort_reasons
        counts = [reasons.get(reason, 0) for reason in ABORT_REASONS]
        extra = sum(count for reason, count in reasons.items()
                    if reason not in ABORT_REASONS)
        lines.append("%-28s" % result.label + "".join(
            " %14d" % count for count in counts)
            + " %10d" % (sum(counts) + extra))
    return "\n".join(lines)


def summarize_telemetry(payload: Mapping) -> str:
    """One-screen summary of a telemetry-registry export.

    ``payload`` is the parsed JSON written by
    :meth:`repro.obs.ObservabilityHub.export_telemetry` (or
    ``TelemetryRegistry.export``): schema version, snapshot count and span,
    final counter values, and the per-stage latency table when present.
    """
    lines: List[str] = ["telemetry (schema v%s)" % payload.get("schema_version")]
    snapshots = payload.get("snapshots", [])
    if snapshots:
        lines.append("%d snapshots over t=[%.1f, %.1f]s" % (
            len(snapshots), snapshots[0]["time"], snapshots[-1]["time"]))
        final = snapshots[-1]
        counters = final.get("counters", {})
        if counters:
            lines.append("final counters:")
            for name in sorted(counters):
                lines.append("  %-36s %s" % (name, counters[name]))
    stage_latency = payload.get("stage_latency")
    if stage_latency:
        lines.append("per-stage latency (seconds):")
        lines.append("  %-10s %10s %12s %12s %12s" % (
            "stage", "count", "mean", "p50", "p99"))
        stages = dict(stage_latency.get("stages", {}))
        stages["total"] = stage_latency.get("total", {})
        for stage in list(sorted(stage_latency.get("stages", {}))) + ["total"]:
            hist = stages[stage]
            lines.append("  %-10s %10d %12.6f %12.6f %12.6f" % (
                stage, hist.get("count", 0), hist.get("mean_seconds", 0.0),
                hist.get("p50_seconds", 0.0), hist.get("p99_seconds", 0.0)))
        lines.append("  stage-sum vs end-to-end reconcile error: %.3e"
                     % stage_latency.get("reconcile_error", 0.0))
    return "\n".join(lines)


def shape_check(results: Sequence[ExperimentResult],
                expected_order: Sequence[str]) -> List[str]:
    """Verify the qualitative ordering of policies by throughput.

    Returns a list of violations (empty when the measured ordering matches
    the paper's ordering).  Used by the benchmark harnesses to report the
    shape comparison without failing on absolute numbers.
    """
    measured = {r.config.policy: r.throughput_tps for r in results}
    problems = []
    for worse, better in zip(expected_order, expected_order[1:]):
        if worse not in measured or better not in measured:
            continue
        if measured[better] < measured[worse]:
            problems.append(
                "expected %s (%.1f tps) >= %s (%.1f tps)"
                % (better, measured[better], worse, measured[worse])
            )
    return problems
