"""``python -m repro.serve serve`` with in-memory span recorders.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_serve.py --nodes 20000 --edges 120000 ...

Before handing its arguments to the ``serve`` subcommand, this
launcher wraps the public entry points of each serving layer with a
recorder that appends ``(name, request, thread, start, end, extra)``
to a list. Nothing is written while serving; on exit (SIGINT) the
list is printed to stdout as one ``PERFBENCH_SPANS <json>`` line.

``request`` links the spans of one HTTP query: the HTTP handler's
``top_k_sync`` call sets a context variable, which the broker's
coroutine inherits through ``run_coroutine_threadsafe``. An entry
point that no longer exists is skipped and named in the output, so a
refactor degrades the layer report instead of breaking the server.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter

SPANS: list = []
MISSING: list = []
_request = contextvars.ContextVar("perfbench_request", default=None)
_ids = itertools.count(1)


def _record(name, start, extra=None):
    SPANS.append((name, _request.get(), threading.get_ident(), start,
                  perf_counter(), extra))


def _engine_counts(engine) -> tuple:
    stats = engine.stats
    return stats.hits, stats.misses, stats.column_computes


def _wrap(function, name: str, *, root: bool = False, engine=False):
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            start = perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                _record(name, start)
        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        token = _request.set(next(_ids)) if root else None
        before = _engine_counts(args[0]) if engine else None
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            extra = None
            if engine:
                after = _engine_counts(args[0])
                extra = [b - a for a, b in zip(before, after)]
            _record(name, start, extra)
            if token is not None:
                _request.reset(token)
    return traced


def probe(module: str, path: str, name: str, **options) -> None:
    """Wrap ``module.path`` (``Class.method`` or a module global)."""
    try:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        MISSING.append(f"{module}.{path}")
        return
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(raw.__func__, name)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(_wrap(raw.__func__, name)))
    else:
        setattr(owner, attr, _wrap(raw, name, **options))


# (module, attribute path, span name, options); names follow the
# layer they time, as in the benchmark's per-layer report
PROBES = (
    ("repro.serve.__main__", "build_graph", "setup.graph", {}),
    ("repro.serve.service", "ServingService.warmup", "setup.warmup", {}),
    ("repro.serve.service", "ServingService.top_k_sync", "service.top_k_sync",
     {"root": True}),
    ("repro.serve.service", "ServingService.mutate", "snapshot.mutate", {}),
    ("repro.serve.http", "ranking_to_dict", "http.render", {}),
    ("repro.serve.broker", "QueryBroker.top_k", "broker.top_k", {}),
    ("repro.engine.engine", "SimilarityEngine.columns", "engine.columns",
     {"engine": True}),
    ("repro.engine.results", "Ranking.from_scores", "ranking.from_scores",
     {}),
    ("repro.serve.snapshot", "apply_delta", "index.apply_delta", {}),
    ("repro.approx.estimator", "ApproxEstimator.topk_scores", "approx.topk",
     {}),
    ("repro.approx.estimator", "ApproxEstimator.column", "approx.column", {}),
    ("repro.approx.walks", "WalkIndex.build", "approx.walk_build", {}),
)


def main(argv: list[str]) -> int:
    for module, path, name, options in PROBES:
        probe(module, path, name, **options)
    serve = importlib.import_module("repro.serve.__main__")
    try:
        return serve.main(["serve", *argv])
    finally:
        document = {"spans": SPANS, "missing": MISSING}
        sys.stdout.write("PERFBENCH_SPANS " + json.dumps(document) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
