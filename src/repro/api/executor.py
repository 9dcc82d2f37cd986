"""Thread-pool execution policy for the serving facade.

:meth:`repro.api.SpectralIndex.query_many` acquires every order a batch
needs through one batched service call and then executes the queries;
this module owns the *how many at once* decision for that execution (and
for the :class:`~repro.api.aio.AsyncSpectralIndex` front riding on it).

The knob resolves in precedence order:

1. an explicit ``parallelism=`` argument;
2. the ``REPRO_QUERY_WORKERS`` environment variable (deployment
   policy, like the solver cutoffs);
3. ``1`` — sequential, the safe default.

Threads are safe here (the shared mutable state — buffer pool, lazy
view/store materialization, service caches — is individually locked;
see :mod:`repro.storage.buffer` and :class:`~repro.api.SpectralIndex`)
but do not speed a batch up: its queries are many small numpy calls
between stretches of Python that hold the GIL.  On a warm 128x128
32-query batch (28 ranges, 3 nn, 1 join; 2-CPU x86 VM, CPython 3.11),
``parallelism=2`` ran at 0.6x the speed of ``parallelism=1``.  Keep
the default at 1.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import InvalidParameterError
from repro.parallel import ensure_workers, map_in_threads as _map

#: Environment variable supplying the default worker count for
#: ``query_many`` fan-out (and the asyncio facade's executor).
WORKERS_ENV = "REPRO_QUERY_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


def workers_from_env() -> Optional[int]:
    """The ``REPRO_QUERY_WORKERS`` value, validated; ``None`` if unset.

    An unset or empty variable means "no deployment policy"; anything
    else must parse as an integer >= 1 (misconfiguration raises rather
    than silently serializing a fleet).
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise InvalidParameterError(
            f"{WORKERS_ENV} must be an integer >= 1, got {value}"
        )
    return value


def resolve_parallelism(parallelism: Optional[int]) -> int:
    """Worker count for a query batch: argument, env var, then 1."""
    if parallelism is None:
        env = workers_from_env()
        return 1 if env is None else env
    return ensure_workers(parallelism)


def default_async_workers() -> int:
    """Executor width for the asyncio facade.

    ``REPRO_QUERY_WORKERS`` wins when set; otherwise the stdlib's
    ThreadPoolExecutor sizing heuristic (``min(32, cpus + 4)``) — the
    asyncio front exists to overlap queries, so unlike the sync path it
    must not default to a single worker.
    """
    env = workers_from_env()
    if env is not None:
        return env
    return min(32, (os.cpu_count() or 1) + 4)


def map_in_threads(fn: Callable[[T], R], items: Sequence[T],
                   workers: int) -> List[R]:
    """:func:`repro.parallel.map_in_threads` with the facade's pool name."""
    return _map(fn, items, workers, thread_name_prefix="repro-query")
