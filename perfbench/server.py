"""The benchmark's server process: a 2-shard fleet behind a socket.

Run as ``python -m perfbench.server --cache-dir DIR --memory-entries N``
from the repository root.  It builds a :class:`ProcessPoolFrontend`
(so the benchmark controls ``cache_dir`` and ``memory_entries``, which
``repro-serve`` does not expose) behind a :class:`SpectralServer` with
the same defaults ``repro-serve --listen`` uses, prints
``listening on HOST:PORT`` and serves until SIGTERM or SIGINT.  The
shutdown path is the deployed one: ``SpectralServer.close()`` and then
the fleet's close, so the benchmark's teardown time measures both.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.server")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--memory-entries", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.api import ProcessPoolFrontend
    from repro.net import SpectralServer

    from perfbench.workloads import SHARDS

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    front = ProcessPoolFrontend(shards=SHARDS, cache_dir=args.cache_dir,
                                memory_entries=args.memory_entries)
    server = None
    try:
        server = SpectralServer(front, "127.0.0.1", 0).start()
        host, port = server.address
        print(f"listening on {host}:{port}", flush=True)
        stop.wait()
    finally:
        if server is not None:
            server.close()
        front.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
