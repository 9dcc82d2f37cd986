"""Shutdown latency: ``SpectralServer.close()`` returns promptly.

The accept thread blocks in ``accept()``; closing the listening socket
alone does not wake it on Linux, so without a ``shutdown()`` the join
in ``close()`` waits the whole drain grace period.  With nothing in
flight there is nothing to drain, and ``close()`` must be quick.
"""

import time

import pytest

from repro.net import RemoteFrontend, SpectralServer
from repro.service import ShardedIndexFrontend

pytestmark = pytest.mark.net

CLOSE_BOUND_SECONDS = 1.0


def _timed_close(server):
    started = time.monotonic()
    server.close()
    return time.monotonic() - started


def test_close_of_an_idle_server_is_prompt():
    server = SpectralServer(ShardedIndexFrontend(shards=1),
                            dispatchers=2).start()
    assert _timed_close(server) < CLOSE_BOUND_SECONDS


def test_close_with_a_connected_idle_client_is_prompt():
    server = SpectralServer(ShardedIndexFrontend(shards=1),
                            dispatchers=2).start()
    host, port = server.address
    client = RemoteFrontend(host, port, read_timeout=30)
    try:
        client.hello()  # the connection is up and idle
        assert _timed_close(server) < CLOSE_BOUND_SECONDS
    finally:
        client.close()
