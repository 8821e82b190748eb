"""The benchmark of record: a keep-alive HTTP client against ``repro.serve``.

``main`` is run through ``perfbench/run.py``. ``--trace 0`` launches
``python -m repro.serve serve`` several times (the median
launch-to-first-200 is ``setup_s``), then drives the last one with a
seeded open-loop schedule and a closed loop over ``nproc`` keep-alive
connections, checks a seeded sample of the answers, and prints every
end-to-end metric. ``--trace 1`` runs the first half of that open-loop
schedule twice, untraced and through ``perfbench/traced_serve.py``,
and prints the per-layer metrics. The last stdout line is the result document;
``perfbench/README.md`` defines every number.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
from pathlib import Path

from perfbench import check as checking
from perfbench.client import Connection, LoadClient, Server, connection_count
from perfbench.layers import (
    PER_LAYER_UNITS, join_http, lag_p99_ms, layer_metrics, parse_metrics)
from perfbench.machine import machine_block
from perfbench.workload import (
    WORKLOADS, Op, open_loop_schedule, percentile, streams, tail_percentile)

ROOT = Path(__file__).resolve().parent.parent

# set-up is timed over at least 2 launches, and a 3rd while the
# launches so far took under SETUP_BUDGET_S (the 100k-node graph
# takes ~5.5 s a launch, the others ~1.2 s)
MAX_LAUNCHES = 3
SETUP_BUDGET_S = 8.0
OPEN_SHARE = 0.9  # of --seconds; the closed loop gets the rest
WARM_SECONDS = 1.0
WARM_CONNECTIONS = 8
CHECK_SAMPLE = 64
# validity: the generator may run late by this much (p99) ...
LAG_BOUND_MS = 50.0
# ... and the waiting queue may grow by this many ops from the first
# quarter of the open-loop phase to the last
BACKLOG_GROWTH_BOUND = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rps": "ops/s",
    "precision_at_k": "ratio",
    "server_rss_mb": "MiB",
    "cpu_ms_per_op": "ms",
}


class InvalidRun(Exception):
    """The load generator did not deliver its own schedule."""


def _env() -> dict:
    """The server's environment: this checkout's ``src``, one BLAS thread.

    With the library's default pool (one thread per CPU) a fresh
    column takes ~13 or ~26 ms depending on the server process, a coin
    flip per launch that no number of runs averages out; README.md has
    the numbers. ``run.py`` pins the client the same way.
    """
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def _launch(workload, traced: bool, work: Path) -> Server:
    entry = (["perfbench/traced_serve.py"] if traced
             else ["-m", "repro.serve", "serve"])
    argv = [sys.executable, *entry, "--port", "0", *workload.serve_args]
    return Server(argv, _env(), str(work / f"{workload.name}.log"))


async def _warm(load: LoadClient, server: Server, hot: list, stream) -> None:
    """Untimed: fill the caches with the hottest reads, then idle loop.

    The hot set goes out over a wide burst of short-lived connections
    so the broker computes it in wide batches; then the load
    connections run a short closed loop so the timed phase starts on
    warm connections.
    """
    if hot:
        queue = iter(hot)

        async def burst(conn: Connection) -> None:
            for query in queue:
                status, _ = await conn.request(
                    "POST", "/top_k", Op(0.0, "top_k", query).body())
                if status != 200:
                    raise RuntimeError(f"warm-up read answered {status}")
            conn.close()

        await asyncio.gather(*(
            burst(Connection(i, server.host, server.port))
            for i in range(WARM_CONNECTIONS)))
    await load.closed_loop(stream, WARM_SECONDS)


def _validity(results: list) -> None:
    lag = lag_p99_ms(results)
    if lag > LAG_BOUND_MS:
        raise InvalidRun(f"generator lag p99 {lag:.1f} ms > "
                         f"{LAG_BOUND_MS} ms")
    quarter = max(1, len(results) // 4)
    first = statistics.fmean(r.backlog for r in results[:quarter])
    last = statistics.fmean(r.backlog for r in results[-quarter:])
    if last - first > BACKLOG_GROWTH_BOUND:
        raise InvalidRun(f"backlog grew {first:.2f} -> {last:.2f} ops "
                         "over the open-loop phase")


async def _drive(server: Server, workload, parts: dict, ops: list,
                 closed_s: float, traced: bool) -> dict:
    load = LoadClient(server.host, server.port, connection_count())
    await load.open()
    try:
        hot = parts["permutation"][:workload.warm_hot].tolist()
        await _warm(load, server, hot, parts["warmup"])
        out: dict = {"mutations": load.mutations}
        if traced:
            out["before"] = parse_metrics(
                (await load.get("/metrics")).decode())
        cpu0 = server.cpu_s()
        out["open"] = await load.open_loop(ops)
        out["window"] = (min(r.sent for r in out["open"]),
                         max(r.done for r in out["open"]))
        if traced:
            out["after"] = parse_metrics(
                (await load.get("/metrics")).decode())
        out["closed"], out["closed_span"] = [], 0.0
        if closed_s > 0:
            out["closed"], out["closed_span"] = await load.closed_loop(
                parts["closed"], closed_s)
        out["cpu_s"] = server.cpu_s() - cpu0
        out["rss_mb"] = server.peak_rss_mb()
    finally:
        load.close()
    return out


def _latencies_ms(results: list, kind: str) -> list[float]:
    return [r.latency * 1e3 for r in results if r.op.kind == kind and r.ok]


def _tail(values: list[float]) -> tuple[float, str]:
    """The tail value and its label; the maximum below 20 samples."""
    p = tail_percentile(len(values))
    if p is None:
        return max(values), f"max of {len(values)}"
    return percentile(values, p), f"p{p:g} of {len(values)}"


class Run:
    """One server's timed phases plus the checks of its answers."""

    def __init__(self, workload, graph, seed: int, open_s: float,
                 closed_s: float, traced: bool, max_launches: int,
                 work: Path, sample_size: int) -> None:
        parts = streams(workload, seed, graph.num_nodes, graph)
        count = max(1, round(workload.rate * open_s))
        ops = open_loop_schedule(parts["open"], workload.rate, count,
                                 parts["open_times"])
        self.setups = []
        server = None
        while len(self.setups) < max_launches and (
                len(self.setups) < 2 or sum(self.setups) < SETUP_BUDGET_S):
            if server is not None:
                server.stop()
            server = _launch(workload, traced, work)
            self.setups.append(server.setup_s)
        try:
            self.data = asyncio.run(
                _drive(server, workload, parts, ops, closed_s, traced))
        finally:
            output = server.stop()
        self.spans, self.missing = [], []
        for line in output.decode(errors="replace").splitlines():
            if line.startswith("PERFBENCH_SPANS "):
                document = json.loads(line.split(" ", 1)[1])
                self.spans, self.missing = (document["spans"],
                                            document["missing"])
        self.timed = self.data["open"] + self.data["closed"]
        self.reads = [r for r in self.timed
                      if r.op.kind == "top_k" and r.ok]
        rng = parts["sample"]
        picks = rng.choice(len(self.reads),
                           size=min(sample_size, len(self.reads)),
                           replace=False) if self.reads else []
        self.sample = [self.reads[i] for i in sorted(picks)]

    def verify(self, reference, exact: bool) -> checking.Verdict:
        verdict = checking.check(self.reads, self.sample,
                                 self.data["mutations"], reference, exact)
        for result in self.timed:
            if not result.ok:
                verdict.wrong.append(
                    (-1, f"{result.op.kind} answered {result.status}: "
                     f"{result.payload[:200]!r}"))
        return verdict

    def p50_ms(self) -> float:
        return statistics.median(_latencies_ms(self.data["open"], "top_k"))


def _config(workload):
    from repro.cliopts import (
        add_config_options, add_graph_options, build_graph,
        config_from_args)

    parser = argparse.ArgumentParser()
    add_graph_options(parser)
    add_config_options(parser)
    args, _ = parser.parse_known_args(workload.serve_args)
    return build_graph(args), config_from_args(args)


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<26} {value:>14.4f} {unit:<6} {note}".rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print(f"no repro package under {ROOT / 'src'}: run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    machine = machine_block(sys.executable, ROOT, _env())
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)
    graph, config = _config(workload)
    exact = config.mode == "exact"
    try:
        if args.trace:
            result = _traced(workload, graph, config, exact, args, work,
                             machine)
        else:
            result = _untraced(workload, graph, config, exact, args, work)
    except InvalidRun as exc:
        print(f"invalid run, not reported: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _verdicts(runs: list, workload, graph, config, exact: bool) -> tuple:
    wrong, checked, hits, total = [], 0, 0, 0
    for run in runs:
        # approx answers are scored against exact columns
        reference = checking.Reference(
            checking.graph_versions(graph, run.data["mutations"]),
            config.replace(mode="exact"))
        verdict = run.verify(reference, exact)
        wrong += verdict.wrong
        checked += verdict.checked
        hits += verdict.precision_hits
        total += verdict.precision_total
    for index, reason in wrong[:10]:
        print(f"FAILED op {index}: {reason}", file=sys.stderr)
    return wrong, checked, (hits / total if total else 0.0)


def _untraced(workload, graph, config, exact, args, work) -> dict:
    run = Run(workload, graph, args.seed,
              open_s=OPEN_SHARE * args.seconds,
              closed_s=(1 - OPEN_SHARE) * args.seconds, traced=False,
              max_launches=MAX_LAUNCHES, work=work,
              sample_size=CHECK_SAMPLE)
    _validity(run.data["open"])
    wrong, checked, precision = _verdicts([run], workload, graph, config,
                                          exact)
    reads = _latencies_ms(run.data["open"], "top_k")
    tail, tail_label = _tail(reads)
    closed_ok = sum(1 for r in run.data["closed"] if r.ok)
    completed = sum(1 for r in run.timed if r.ok)
    metrics = {
        "setup_s": statistics.median(run.setups),
        "p50_ms": run.p50_ms(),
        "tail_ms": tail,
        "peak_rps": closed_ok / run.data["closed_span"],
        "precision_at_k": precision,
        "server_rss_mb": run.data["rss_mb"],
        "cpu_ms_per_op": 1e3 * run.data["cpu_s"] / max(1, completed),
    }
    attempted, failed = len(run.timed), len(wrong)
    notes = {
        "setup_s": "launches " + " ".join(f"{s:.3f}" for s in run.setups),
        "tail_ms": f"{tail_label} open-loop reads",
        "peak_rps": f"{closed_ok} ops in {run.data['closed_span']:.2f} s "
                    f"over {connection_count()} connections",
        "precision_at_k": f"{checked} answers recomputed",
    }
    for name, unit in END_TO_END_UNITS.items():
        _print_metric(name, metrics[name], unit, notes.get(name, ""))
    _print_metric("fail_share", failed / max(1, attempted), "ratio",
                  f"{failed} of {attempted} ops")
    mutations = _latencies_ms(run.data["open"], "mutate")
    if mutations:
        m_tail, m_label = _tail(mutations)
        _print_metric("mutate_p50_ms", statistics.median(mutations), "ms")
        _print_metric("mutate_tail_ms", m_tail, "ms",
                      f"{m_label} open-loop mutations")
    _print_metric("gen.lag_ms", lag_p99_ms(run.data["open"]), "ms", "p99")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()},
    }


def _traced(workload, graph, config, exact, args, work, machine) -> dict:
    # both passes replay the first half of the untraced run's open loop,
    # so a traced run takes about as long as an untraced one
    common = dict(open_s=OPEN_SHARE * args.seconds / 2, max_launches=1,
                  work=work, sample_size=CHECK_SAMPLE // 2)
    plain = Run(workload, graph, args.seed, closed_s=0.0, traced=False,
                **common)
    traced = Run(workload, graph, args.seed,
                 closed_s=(1 - OPEN_SHARE) * args.seconds, traced=True,
                 **common)
    for run in (plain, traced):
        _validity(run.data["open"])
    if traced.missing:
        print("probes not installed: " + ", ".join(traced.missing),
              file=sys.stderr)
    wrong, _, _ = _verdicts([plain, traced], workload, graph, config, exact)
    data = traced.data
    reads = [r for r in data["open"] if r.op.kind == "top_k" and r.ok]
    layers = layer_metrics(traced.spans, data["before"], data["after"],
                           reads, data["window"])
    closed = [r for r in data["closed"] if r.op.kind == "top_k" and r.ok]
    start = min(r.sent for r in closed)
    syncs = [s for s in traced.spans
             if s[0] == "service.top_k_sync" and s[3] >= start]
    mutations = _latencies_ms(plain.data["open"], "mutate")
    layers.update({
        "http.self_closed_ms": 1e3 * statistics.median(
            join_http(closed, syncs) or [0.0]),
        "mutate_p50_ms": statistics.median(mutations) if mutations else 0.0,
        "mutate_tail_ms": _tail(mutations)[0] if mutations else 0.0,
        "gen.lag_ms": max(lag_p99_ms(plain.data["open"]),
                          lag_p99_ms(data["open"])),
        "trace.overhead": traced.p50_ms() / plain.p50_ms() - 1.0,
        "code.src_lines": float(machine["src_lines"]),
        "code.serve_flags": float(machine["serve_flags"]),
    })
    for name, unit in PER_LAYER_UNITS.items():
        _print_metric(name, layers[name], unit)
    return {
        "correct": not wrong,
        "attempted": len(plain.timed) + len(traced.timed),
        "failed": len(wrong),
        "metrics": {name: {"value": layers[name], "unit": unit}
                    for name, unit in PER_LAYER_UNITS.items()},
    }
