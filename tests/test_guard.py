"""Tests for the guard layer: shedding, deadlines, request accounting."""

import asyncio
import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph import random_digraph
from repro.serve import (
    DeadlineExceeded,
    Overloaded,
    ServingService,
    serve_http,
)
from repro.serve.__main__ import smoke_exit_code


def run(coro):
    return asyncio.run(coro)


def make_service(graph=None, **kwargs):
    if graph is None:
        graph = random_digraph(60, 300, seed=3)
    kwargs.setdefault("num_iterations", 6)
    return ServingService(graph, **kwargs)


class TestLoadShedding:
    def test_flood_beyond_queue_depth_sheds_with_retry_after(self):
        service = make_service(
            max_queue_depth=2,
            max_batch=1,
            max_wait_ms=0.0,
            cache_entries=0,
        )

        async def drive():
            results = await asyncio.gather(
                *(service.top_k(q, k=3) for q in range(40)),
                return_exceptions=True,
            )
            return results

        async def main():
            async with service:
                return await drive()

        results = run(main())
        answered = [r for r in results if not isinstance(r, Exception)]
        shed = [r for r in results if isinstance(r, Overloaded)]
        unexpected = [
            r for r in results
            if isinstance(r, Exception)
            and not isinstance(r, Overloaded)
        ]
        assert not unexpected
        assert len(answered) + len(shed) == 40
        assert shed, "a 40-deep flood into a 2-slot queue must shed"
        assert all(e.retry_after > 0 for e in shed)
        assert service.broker.stats.shed == len(shed)

    def test_zero_depth_never_sheds(self):
        service = make_service(max_queue_depth=0, cache_entries=0)

        async def main():
            async with service:
                return await asyncio.gather(
                    *(service.top_k(q, k=3) for q in range(30))
                )

        assert len(run(main())) == 30
        assert service.broker.stats.shed == 0

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError):
            make_service(max_queue_depth=-1)


class TestDeadlines:
    def test_expired_request_is_answered_deadline_exceeded(self):
        service = make_service(cache_entries=0, max_wait_ms=5.0)

        async def main():
            async with service:
                with pytest.raises(DeadlineExceeded):
                    await service.top_k(0, k=3, deadline_ms=0.001)

        run(main())
        assert service.broker.stats.deadline_expired == 1

    def test_expired_member_does_not_poison_its_batch(self):
        service = make_service(
            cache_entries=0, max_batch=8, max_wait_ms=20.0
        )

        async def main():
            async with service:
                return await asyncio.gather(
                    service.top_k(0, k=3, deadline_ms=0.001),
                    service.top_k(1, k=3),
                    service.top_k(2, k=3),
                    return_exceptions=True,
                )

        doomed, ok1, ok2 = run(main())
        assert isinstance(doomed, DeadlineExceeded)
        assert not isinstance(ok1, Exception)
        assert not isinstance(ok2, Exception)

    def test_server_default_deadline_applies(self):
        service = make_service(
            cache_entries=0, default_deadline_ms=0.001,
            max_wait_ms=5.0,
        )

        async def main():
            async with service:
                with pytest.raises(DeadlineExceeded):
                    await service.top_k(0, k=3)
                # an explicit budget overrides the tiny default
                return await service.top_k(1, k=3, deadline_ms=60000)

        assert len(run(main())) == 3

    def test_zero_override_disables_the_default(self):
        service = make_service(
            cache_entries=0, default_deadline_ms=0.001,
            max_wait_ms=5.0,
        )

        async def main():
            async with service:
                return await service.top_k(0, k=3, deadline_ms=0)

        assert len(run(main())) == 3


class TestGuardOverHTTP:
    def test_shed_answers_429_with_retry_after(self):
        service = make_service(
            max_queue_depth=1,
            max_batch=1,
            max_wait_ms=0.0,
            cache_entries=0,
        )
        service.start_background()
        server = serve_http(service, background=True)
        url = server.url
        codes = []
        retry_afters = []

        def client(q):
            body = json.dumps({"query": q % 50, "k": 3}).encode()
            request = urllib.request.Request(
                f"{url}/top_k", data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=30
                ) as reply:
                    reply.read()
                    codes.append(reply.status)
            except urllib.error.HTTPError as exc:
                payload = json.loads(exc.read())
                codes.append(exc.code)
                if exc.code == 429:
                    retry_afters.append(
                        (exc.headers.get("Retry-After"),
                         payload.get("retry_after"))
                    )

        try:
            with ThreadPoolExecutor(max_workers=32) as pool:
                list(pool.map(client, range(64)))
        finally:
            server.stop()
            service.close()
        assert len(codes) == 64
        assert set(codes) <= {200, 429}
        assert 429 in codes, "64-deep flood into depth 1 must shed"
        for header, body_value in retry_afters:
            assert float(header) > 0
            assert body_value == pytest.approx(float(header))

    def test_expired_deadline_answers_504(self):
        service = make_service(
            cache_entries=0, max_wait_ms=5.0
        )
        service.start_background()
        server = serve_http(service, background=True)
        try:
            body = json.dumps(
                {"query": 0, "k": 3, "deadline_ms": 0.001}
            ).encode()
            request = urllib.request.Request(
                f"{server.url}/top_k", data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 504
            assert "deadline" in json.loads(excinfo.value.read())[
                "error"
            ]
        finally:
            server.stop()
            service.close()


class TestAccountingProperty:
    """Satellite: answered + shed + expired == submitted, always."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_sequences_never_lose_a_request(self, seed):
        import random

        rng = random.Random(seed)
        depth = rng.choice([1, 2, 4])
        service = make_service(
            graph=random_digraph(40, 200, seed=5),
            workers=2,
            cache_entries=0,
            max_batch=rng.choice([1, 4]),
            max_wait_ms=rng.choice([0.0, 2.0]),
            max_queue_depth=depth,
            default_deadline_ms=rng.choice([0.0, 5000.0]),
        )
        total = 36
        deadlines = [
            rng.choice([None, 0.001, 0.5, 50.0, 60000.0])
            for _ in range(total)
        ]

        async def main():
            async with service:
                return await asyncio.gather(
                    *(
                        service.top_k(
                            q % 40, k=3, deadline_ms=deadlines[q]
                        )
                        for q in range(total)
                    ),
                    return_exceptions=True,
                )

        results = run(main())
        answered = sum(
            1 for r in results if not isinstance(r, Exception)
        )
        shed = sum(1 for r in results if isinstance(r, Overloaded))
        expired = sum(
            1 for r in results if isinstance(r, DeadlineExceeded)
        )
        other = total - answered - shed - expired
        assert other == 0, [
            r for r in results
            if isinstance(r, Exception)
            and not isinstance(r, (Overloaded, DeadlineExceeded))
        ]
        stats = service.broker.stats
        assert stats.shed == shed
        assert stats.deadline_expired == expired


class TestSmokeExitCode:
    """Satellite: per-request failures must never exit 0."""

    def test_failures_alone_force_nonzero(self):
        assert smoke_exit_code({"a": True, "b": True}, ["boom"]) == 1

    def test_failed_check_forces_nonzero(self):
        assert smoke_exit_code({"a": True, "b": False}, []) == 1

    def test_clean_run_exits_zero(self):
        assert smoke_exit_code({"a": True}, []) == 0
