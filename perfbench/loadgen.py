"""Load generation and latency statistics shared by the workloads.

Two load patterns: :func:`closed_loop` (each connection sends its next request
only after the previous answer arrived) and :func:`open_loop` (requests
are due on a fixed schedule; each is timed from when it was *due*, so a
stall is charged to every request queued behind it).  Both record one
:class:`Outcome` per request, with the answer check already applied.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: Requests per tail window (see :func:`summarize`).
TAIL_WINDOW = 1000


@dataclass
class Outcome:
    """One request as the client saw it."""

    latency_s: float
    ops: int
    ok: bool
    error: Optional[str] = None
    source: Optional[str] = None
    late_s: float = 0.0


class Recorder:
    """Thread-safe sink of outcomes from every connection."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.outcomes: List[Outcome] = []

    def add(self, outcome: Outcome) -> None:
        with self._lock:
            self.outcomes.append(outcome)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def ops(self) -> int:
        return sum(o.ops for o in self.outcomes if o.ok)

    def errors(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for o in self.outcomes:
            if not o.ok:
                counts[o.error or "?"] = counts.get(o.error or "?", 0) + 1
        return counts


def send_checked(client, request, check: Callable, *,
                 due: Optional[float] = None) -> Outcome:
    """Send ``request`` on ``client`` and check the answer.

    The clock starts at ``due`` when given (open loop), else at the send.
    A refused, failed or wrong answer is an outcome with ``ok=False``;
    the run goes on so the error rate can be reported.
    """
    start = time.perf_counter() if due is None else due
    try:
        response = request.send(client)
    except Exception as exc:  # noqa: BLE001 - counted and reported
        return Outcome(time.perf_counter() - start, request.ops, False,
                       error=type(exc).__name__)
    latency = time.perf_counter() - start
    if not check(request, response):
        return Outcome(latency, request.ops, False, error="wrong-answer")
    return Outcome(latency, request.ops, True,
                   source=getattr(response, "source", None))


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    errors: List[BaseException] = []

    def guard(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(t,), daemon=True)
               for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(clients: Sequence, streams: Sequence, seconds: float,
                check: Callable, recorder: Recorder) -> float:
    """Each connection walks its own request stream until ``seconds``
    have passed; returns the elapsed time to the last answer."""
    start = time.perf_counter()
    deadline = start + seconds

    def connection(client, stream) -> Callable[[], None]:
        def run() -> None:
            for request in stream:
                if time.perf_counter() >= deadline:
                    return
                recorder.add(send_checked(client, request, check))
        return run

    _run_threads([connection(c, s) for c, s in zip(clients, streams)])
    return time.perf_counter() - start


def poisson_arrivals(rng: np.random.Generator, rate: float,
                     seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process over ``seconds``."""
    count = int(rate * seconds * 1.2) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    while offsets[-1] < seconds:  # pragma: no cover - 1.2x covers it
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate,
                                                       size=count))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < seconds]


def open_loop(clients: Sequence, arrivals: np.ndarray, requests: Sequence,
              check: Callable, recorder: Recorder) -> float:
    """Send ``requests[i % len]`` when arrival ``i`` is due, on whichever
    connection is free; returns the elapsed time to the last answer."""
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()

    def connection(client) -> Callable[[], None]:
        def run() -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(arrivals):
                    return
                due = start + float(arrivals[i])
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late = time.perf_counter() - due
                outcome = send_checked(client,
                                       requests[i % len(requests)], check,
                                       due=due)
                outcome.late_s = late
                recorder.add(outcome)
        return run

    _run_threads([connection(c) for c in clients])
    return time.perf_counter() - start


def tail_percentile(n: int) -> float:
    """The highest percentile (capped at 99) with ``TAIL_SAMPLES`` beyond it."""
    if n <= TAIL_SAMPLES:
        return 50.0
    return max(50.0, min(99.0, math.floor(1000.0 * (1.0 - TAIL_SAMPLES / n))
                         / 10.0))


def summarize(values_s: Sequence[float]) -> Dict[str, float]:
    """Median, p90 and tail in ms, with counts.

    The tail is the highest percentile (capped at 99) with
    ``TAIL_SAMPLES`` samples beyond it.  With at least two windows'
    worth of samples it is taken per window of ``TAIL_WINDOW``
    consecutive requests and the median over windows is reported, so a
    burst of stolen CPU on a shared host moves one window, not the run.
    """
    values = np.asarray(values_s, dtype=float) * 1e3
    if values.size == 0:
        return {"n": 0, "p50_ms": float("nan"), "p90_ms": float("nan"),
                "tail_pct": 0.0, "tail_ms": float("nan"), "windows": 0}
    windows = max(1, values.size // TAIL_WINDOW)
    chunks = np.array_split(values, windows) if windows > 1 else [values]
    pct = tail_percentile(min(c.size for c in chunks))
    return {"n": int(values.size),
            "p50_ms": float(np.percentile(values, 50)),
            "p90_ms": float(np.percentile(values, 90)),
            "tail_pct": pct,
            "tail_ms": float(np.median([np.percentile(c, pct)
                                        for c in chunks])),
            "windows": len(chunks)}
