"""Start, measure and stop the server process under test.

:class:`ServerProcess` launches ``perfbench.server`` in its own process
group, connects the benchmark's clients to it, and owns its shutdown:
:meth:`ServerProcess.stop_async` sends SIGTERM and times how long the
server and its fleet workers take to exit, and :meth:`ServerProcess.join`
waits for that and checks that nothing was left behind (no live
process, no listening port).  Any failure path kills the whole process
group so a broken run never leaks a fleet.

:func:`become_subreaper` and :func:`reap_children` cover what the
groups do not: the ``multiprocessing`` resource tracker that the traced
run's in-process fleet starts, and helpers a server leaves orphaned.
The benchmark calls the first at start and the second on every way out,
so no process it started outlives it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from perfbench import REPO_ROOT, SRC_DIR

#: How long a server may take to print its address (fleet spawn included).
READY_TIMEOUT_S = 120.0
#: How long teardown may take before the run is declared broken.  The
#: seed's ``SpectralServer.close()`` alone waits ``DRAIN_GRACE_SECONDS``
#: (10 s) on its accept thread; the fleet then waits up to 10 s per worker.
STOP_TIMEOUT_S = 60.0
#: How long :func:`reap_children` lets leftover children exit on their
#: own, and then after SIGTERM, before it sends SIGKILL.
REAP_GRACE_S = 5.0
#: ``prctl`` option (``<linux/prctl.h>``).
PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` after the command name (state first), or []."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return []


def group_alive(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if (len(fields) > 2 and fields[2] == str(pgid)
                    and fields[0] not in ("Z", "X")):
                alive.append(int(entry))
    return alive


def become_subreaper() -> None:
    """Make orphaned descendants re-parent to this process (Linux), so
    :func:`reap_children` can wait for a server's helpers too."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[Tuple[int, str]]:
    """``(pid, state)`` of every child of this process, zombies included."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if len(fields) > 1 and fields[1] == me:
                found.append((int(entry), fields[0]))
    return found


def reap_children() -> None:
    """Stop and wait for every child still around: the resource tracker
    first (closing its pipe ends it), then anything else -- left time to
    exit, then SIGTERM, then SIGKILL."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    signals = [signal.SIGTERM, signal.SIGKILL]
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        children = _children()
        if not children:
            return
        for pid, state in children:
            if state in ("Z", "X"):
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
        live = [pid for pid, state in children if state not in ("Z", "X")]
        if live and time.monotonic() > deadline:
            if not signals:
                return  # SIGKILLed; nothing more can be done
            sig = signals.pop(0)
            for pid in live:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + REAP_GRACE_S
        time.sleep(0.01)


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


def port_is_listening(host: str, port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        try:
            probe.connect((host, port))
        except (ConnectionRefusedError, socket.timeout, OSError):
            return False
    return True


class ServerProcess:
    """One ``perfbench.server`` process with its fleet and clients."""

    def __init__(self, cache_dir: Path, memory_entries: int,
                 connections: int) -> None:
        from repro.api import RemoteFrontend

        self.cache_dir = Path(cache_dir)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server",
             "--cache-dir", str(cache_dir),
             "--memory-entries", str(memory_entries)],
            cwd=str(REPO_ROOT),
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            start_new_session=True, text=True,
        )
        self.clients: List = []
        self.worker_pids: List[int] = []
        self.teardown_s: Optional[float] = None
        self._waiter: Optional[threading.Thread] = None
        try:
            self.host, self.port = self._read_address()
            self.clients = [RemoteFrontend(self.host, self.port,
                                           read_timeout=120.0)
                            for _ in range(connections)]
            health = self.clients[0].health()
            if health.pid != self._proc.pid:
                raise BenchError(f"server pid {health.pid} is not the "
                                 f"launched pid {self._proc.pid}")
            self.worker_pids = [w.pid for w in health.workers]
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self._proc.pid

    def _read_address(self):
        result: List[str] = []
        stdout = self._proc.stdout

        def read() -> None:
            for line in stdout:
                if line.startswith("listening on "):
                    result.append(line.split()[-1])
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(READY_TIMEOUT_S)
        if not result:
            raise BenchError("server did not report its address "
                             f"(exit code {self._proc.poll()})")
        host, port = result[0].rsplit(":", 1)
        return host, int(port)

    def rss_mb(self) -> float:
        """Summed peak RSS of the server process and its workers."""
        pids = [self.pid] + self.worker_pids
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop_async(self) -> None:
        """Signal shutdown and time it on a background thread."""
        for client in self.clients:
            client.close()
        signalled = time.perf_counter()
        self._proc.send_signal(signal.SIGTERM)

        def wait() -> None:
            # The server leads its own process group: it is down when no
            # member (fleet workers, multiprocessing helpers) is left.
            try:
                self._proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return
            deadline = time.monotonic() + 10.0
            while group_alive(self._proc.pid):
                if time.monotonic() > deadline:
                    return
                time.sleep(0.005)
            self.teardown_s = time.perf_counter() - signalled

        self._waiter = threading.Thread(target=wait, daemon=True)
        self._waiter.start()

    def join(self) -> float:
        """Wait for :meth:`stop_async`; verify nothing was left behind."""
        if self._waiter is None:
            raise BenchError("join() before stop_async()")
        self._waiter.join(STOP_TIMEOUT_S + 15.0)
        if self.teardown_s is None:
            self.kill()
            raise BenchError("server or fleet workers did not exit "
                             f"within {STOP_TIMEOUT_S:.0f} s")
        if self._proc.stdout is not None:
            self._proc.stdout.close()
        if self._proc.returncode != 0:
            raise BenchError(f"server exited with {self._proc.returncode}")
        if port_is_listening(self.host, self.port):
            raise BenchError(f"port {self.port} still listening after "
                             "teardown")
        return self.teardown_s

    def kill(self) -> None:
        """Last resort on error paths: kill the whole process group."""
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        if self._proc.poll() is None:
            try:
                os.killpg(self._proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self._proc.wait(10.0)
        except subprocess.TimeoutExpired:
            pass
        for pid in group_alive(self._proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self._proc.stdout is not None:
            self._proc.stdout.close()
