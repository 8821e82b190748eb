"""Per-layer metrics of a traced run: span joins and counter deltas.

Spans come from ``perfbench/traced_serve.py``; counters from the
server's own ``/metrics`` scraped at the open-loop phase boundaries.
Span metrics are medians over the phase unless named a ratio or a sum.
"""

from __future__ import annotations

import itertools
import statistics

from perfbench.workload import percentile

MS = 1e3

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    "http.self_ms": "ms",
    "http.self_closed_ms": "ms",
    "http.render_ms": "ms",
    "http.joined_reads": "count",
    "service.hop_ms": "ms",
    "broker.coalesce_wait_ms": "ms",
    "broker.batch_width": "count",
    "cache.hit_ratio": "ratio",
    "engine.columns_ms": "ms",
    "engine.ms_per_column": "ms",
    "engine.memo_hit_ratio": "ratio",
    "ranking.from_scores_ms": "ms",
    "snapshot.mutate_ms": "ms",
    "index.apply_delta_ms": "ms",
    "snapshot.delta_share": "ratio",
    "approx.topk_ms": "ms",
    "approx.column_ms": "ms",
    "approx.walk_build_s": "s",
    "approx.early_stop_ratio": "ratio",
    "setup.graph_s": "s",
    "setup.warmup_s": "s",
    "mutate_p50_ms": "ms",
    "mutate_tail_ms": "ms",
    "gen.lag_ms": "ms",
    "trace.overhead": "ratio",
    "code.src_lines": "count",
    "code.serve_flags": "count",
}


def parse_metrics(text: str) -> dict:
    """``{series name: value summed over label sets}`` of a scrape."""
    totals: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


def _delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_ms(durations) -> float:
    durations = list(durations)
    return statistics.median(durations) * MS if durations else 0.0


def join_http(reads: list, spans: list) -> list[float]:
    """Client latency minus the server's ``top_k_sync`` span, per read.

    Each keep-alive connection is served in order by one server
    thread, so the i-th read of a connection pairs with the i-th
    ``top_k_sync`` span of its thread. Threads are matched to
    connections by the assignment under which the most pairs nest
    (span inside the client's send..receive interval).
    """
    by_conn: dict = {}
    for result in sorted(reads, key=lambda r: r.sent):
        by_conn.setdefault(result.conn, []).append(result)
    start = min((r.sent for r in reads), default=0.0)
    by_thread: dict = {}
    for span in sorted(spans, key=lambda s: s[3]):
        if span[3] >= start:
            by_thread.setdefault(span[2], []).append(span)

    def pairs(conn, thread):
        out = []
        queue = iter(by_thread.get(thread, ()))
        span = next(queue, None)
        for result in by_conn[conn]:
            while span is not None and span[3] < result.sent:
                span = next(queue, None)
            if span is not None and span[4] <= result.done:
                out.append((result, span))
                span = next(queue, None)
        return out

    conns, threads = list(by_conn), list(by_thread)
    best: list = []
    for chosen in itertools.permutations(threads, min(len(threads),
                                                      len(conns))):
        joined = [p for c, t in zip(conns, chosen) for p in pairs(c, t)]
        if len(joined) > len(best):
            best = joined
    return [(r.done - r.sent) - (s[4] - s[3]) for r, s in best]


def layer_metrics(spans: list, before: dict, after: dict, reads: list,
                  window: tuple[float, float]) -> dict:
    """Every per-layer metric the spans and counters give."""
    lo, hi = window
    in_phase: dict = {}
    lifetime: dict = {}
    for span in spans:
        lifetime.setdefault(span[0], []).append(span)
        if lo <= span[3] <= hi:
            in_phase.setdefault(span[0], []).append(span)

    def durations(name):
        return [s[4] - s[3] for s in in_phase.get(name, ())]

    sync = {s[1]: s for s in in_phase.get("service.top_k_sync", ())}
    hops = [
        (sync[s[1]][4] - sync[s[1]][3]) - (s[4] - s[3])
        for s in in_phase.get("broker.top_k", ()) if s[1] in sync
    ]
    columns = in_phase.get("engine.columns", ())
    hits = sum(s[5][0] for s in columns)
    misses = sum(s[5][1] for s in columns)
    computes = sum(s[5][2] for s in columns)
    column_s = sum(s[4] - s[3] for s in columns)
    approx_queries = (len(in_phase.get("approx.topk", ()))
                      + len(in_phase.get("approx.column", ())))
    self_times = join_http(reads, in_phase.get("service.top_k_sync", ()))
    return {
        "http.self_ms": _median_ms(self_times),
        "http.render_ms": _median_ms(durations("http.render")),
        "service.hop_ms": _median_ms(hops),
        "broker.coalesce_wait_ms": MS * _ratio(
            _delta(before, after, "repro_coalesce_wait_seconds_sum"),
            _delta(before, after, "repro_coalesce_wait_seconds_count")),
        "broker.batch_width": _ratio(
            _delta(before, after, "repro_batch_size_sum"),
            _delta(before, after, "repro_batch_size_count")),
        "cache.hit_ratio": _ratio(
            _delta(before, after, "repro_cache_hits_total"),
            _delta(before, after, "repro_cache_hits_total")
            + _delta(before, after, "repro_cache_misses_total")),
        "engine.columns_ms": _median_ms(durations("engine.columns")),
        "engine.ms_per_column": MS * _ratio(column_s, computes),
        "engine.memo_hit_ratio": _ratio(hits, hits + misses),
        "ranking.from_scores_ms": _median_ms(
            durations("ranking.from_scores")),
        "snapshot.mutate_ms": _median_ms(durations("snapshot.mutate")),
        "index.apply_delta_ms": _median_ms(durations("index.apply_delta")),
        "snapshot.delta_share": _ratio(
            _delta(before, after, "repro_snapshot_delta_swaps_total"),
            _delta(before, after, "repro_snapshot_swaps_total")),
        "approx.topk_ms": _median_ms(durations("approx.topk")),
        "approx.column_ms": _median_ms(durations("approx.column")),
        "approx.walk_build_s": float(sum(
            s[4] - s[3] for s in lifetime.get("approx.walk_build", ()))),
        "approx.early_stop_ratio": _ratio(
            _delta(before, after, "repro_approx_early_stops_total"),
            approx_queries),
        "setup.graph_s": float(sum(
            s[4] - s[3] for s in lifetime.get("setup.graph", ()))),
        "setup.warmup_s": float(sum(
            s[4] - s[3] for s in lifetime.get("setup.warmup", ()))),
        "http.joined_reads": float(len(self_times)),
    }


def lag_p99_ms(results: list) -> float:
    return percentile([r.lag for r in results], 99.0) * MS
