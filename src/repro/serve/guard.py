"""`repro.serve.guard` — admission control results.

The serving stack's overload story is two explicit "no answer, by
design" results that the broker and HTTP layer thread through their
hot paths:

* :class:`Overloaded` — the admission queue is full; the request is
  shed (HTTP ``429`` + ``Retry-After``) instead of queued.
* :class:`DeadlineExceeded` — a request's deadline expired before its
  answer was rendered (HTTP ``504``).

Every request submitted to the broker ends in exactly one of
{answer, ``Overloaded``, ``DeadlineExceeded``, error} — nothing is
ever silently dropped.
"""

from __future__ import annotations

__all__ = [
    "DeadlineExceeded",
    "Overloaded",
]


class Overloaded(RuntimeError):
    """The admission queue is full; the request was shed, not queued.

    Carries ``retry_after`` (seconds, derived from the broker's
    observed batch latency and current backlog) which the HTTP layer
    surfaces as ``429`` + a ``Retry-After`` header.

    >>> from repro.serve.guard import Overloaded
    >>> exc = Overloaded("queue full (depth 64)", retry_after=0.25)
    >>> exc.retry_after
    0.25
    >>> raise exc
    Traceback (most recent call last):
        ...
    repro.serve.guard.Overloaded: queue full (depth 64)
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceeded(RuntimeError):
    """A request's deadline expired before its answer was rendered.

    An expired member of a micro-batch is answered with this error
    *without* poisoning the batch: its healthy peers still compute
    and render normally. Surfaced as HTTP ``504``.

    >>> from repro.serve.guard import DeadlineExceeded
    >>> raise DeadlineExceeded("deadline of 5.0ms exceeded")
    Traceback (most recent call last):
        ...
    repro.serve.guard.DeadlineExceeded: deadline of 5.0ms exceeded
    """
