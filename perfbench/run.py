"""Run the layered serving benchmark.

::

    python3 perfbench/run.py --workload range-heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

``--trace 0`` measures the end-to-end metrics of one workload against a
server process (``perfbench.server``) with tracing off.  ``--trace 1``
is the separate traced run that yields the per-layer metrics
(:mod:`perfbench.layers`); no end-to-end number comes from it.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, stamped
with the machine and source identity, is written under
``.perfbench_out/``.  The exit code is 0 only when every answer check
passed; a run that cannot complete exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import REPO_ROOT, SRC_DIR  # noqa: E402

OUT_DIR = REPO_ROOT / ".perfbench_out"
#: The gated end-to-end metrics.  The p90 and p99 latencies and the
#: error rate are printed and saved too, but not gated (see README.md).
END_TO_END = {
    "setup_s": "s", "teardown_s": "s", "latency_p50_ms": "ms",
    "throughput_ops": "ops/s", "rss_mb": "MB",
}
#: Default run length: ``run_seconds`` in ``BENCHMARK.json``, the length
#: whose spreads were measured against the bounds.
RUN_SECONDS = 30.0
#: Server set-ups per run (1 with ``--smoke``); ``setup_s`` and
#: ``teardown_s`` report their median.
SETUPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all",
                        help="range-heavy, point-lookups, cold-churn or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny domains, for the benchmark's own tests")
    return parser.parse_args(argv)


def set_up(workload, cache_dir: Path):
    """A ready server: process and fleet spawn, connects, warm-up."""
    from perfbench.stack import ServerProcess
    from perfbench.workloads import CONNECTIONS

    start = time.perf_counter()
    server = ServerProcess(cache_dir, workload.memory_entries, CONNECTIONS)
    try:
        workload.warm(server.clients)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - start


def measure(workload, seconds: float, tmp: Path) -> dict:
    """One untraced run: the end-to-end metrics of ``workload``."""
    from perfbench.loadgen import Recorder, summarize

    workload.prepare()
    servers = []
    try:
        server, setup_s = set_up(workload, tmp / "server-0")
        servers.append(server)
        setup_times = [setup_s]
        before = server.clients[0].combined_stats()
        recorder = Recorder()
        elapsed = workload.drive(server.clients, seconds, recorder)
        rss_mb = server.rss_mb()
        run_failures = workload.verify(server, before)
        server.stop_async()
        # Further set-ups overlap the first server's drain stall; they
        # only feed the setup_s / teardown_s medians.
        for i in range(1, 1 if workload.smoke else SETUPS):
            extra, setup_s = set_up(workload, tmp / f"server-{i}")
            servers.append(extra)
            setup_times.append(setup_s)
            extra.stop_async()
        teardowns = [s.join() for s in servers]
    except BaseException:
        for s in servers:
            s.kill()
        raise
    latency = summarize([o.latency_s for o in recorder.outcomes])
    late = (summarize([o.late_s for o in recorder.outcomes])
            if workload.open_loop else None)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "teardown_s": statistics.median(teardowns),
        "latency_p50_ms": latency["p50_ms"],
        "throughput_ops": recorder.ops / elapsed,
        "rss_mb": rss_mb,
    }
    return {
        "workload": workload.name,
        "metrics": metrics,
        "attempted": recorder.attempted + len(run_failures),
        "failed": recorder.failed + len(run_failures),
        "detail": {
            "samples": latency["n"],
            "latency_p90_ms": latency["p90_ms"],
            "latency_p99_ms": latency["tail_ms"],
            "tail_percentile": latency["tail_pct"],
            "tail_windows": latency["windows"],
            "elapsed_s": elapsed,
            "ops": recorder.ops,
            "error_rate": recorder.failed / max(1, recorder.attempted),
            "errors": recorder.errors(),
            "run_check_failures": run_failures,
            "setup_times_s": setup_times,
            "teardown_times_s": teardowns,
            "generator_late_ms": (
                {"p50": late["p50_ms"], "tail": late["tail_ms"]}
                if late else None),
            "epochs": getattr(workload, "epochs_run", None),
        },
    }


def print_report(result: dict) -> None:
    detail = result["detail"]
    m = result["metrics"]
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{detail['elapsed_s']:.1f} s measured, {detail['samples']} "
          f"requests, {detail['ops']} ops)")
    print(f"  setup_s         {m['setup_s']:10.3f} s    median of "
          f"{len(detail['setup_times_s'])} set-ups")
    print(f"  teardown_s      {m['teardown_s']:10.3f} s    median of "
          f"{len(detail['teardown_times_s'])}; includes the 10 s "
          "SpectralServer.close() accept-thread stall")
    print(f"  latency_p50_ms  {m['latency_p50_ms']:10.3f} ms   "
          f"n={detail['samples']}")
    print(f"  latency_p90_ms  {detail['latency_p90_ms']:10.3f} ms   "
          f"n={detail['samples']}")
    print(f"  latency_p99_ms  {detail['latency_p99_ms']:10.3f} ms   "
          f"p{detail['tail_percentile']:g} (highest percentile with 10 "
          f"samples beyond it), median of {detail['tail_windows']} "
          f"window(s), n={detail['samples']}")
    print(f"  throughput_ops  {m['throughput_ops']:10.1f} ops/s")
    print(f"  error_rate      {detail['error_rate']:10.4f}      "
          f"{result['failed']}/{result['attempted']} failed "
          f"{detail['errors'] or ''}")
    print(f"  rss_mb          {m['rss_mb']:10.1f} MB   server + workers, "
          "summed VmHWM")
    late = detail["generator_late_ms"]
    if late:
        print(f"  generator late  p50 {late['p50']:.3f} ms, "
              f"p{detail['tail_percentile']:g} {late['tail']:.3f} ms (how "
              "far behind schedule the open loop sent)")
    for failure in detail["run_check_failures"]:
        print(f"  CHECK FAILED: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC_DIR}", file=sys.stderr)
        return 2

    from perfbench.stamp import machine_stamp
    from perfbench.stack import BenchError, become_subreaper, reap_children
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    stamp = machine_stamp()
    become_subreaper()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{int(time.time() * 1e6)}"
    tmp.mkdir()
    try:
        if args.trace:
            from perfbench.layers import traced_run

            results = [traced_run(args.seed, args.smoke, tmp, OUT_DIR)]
        else:
            results = []
            for name in names:
                result = measure(WORKLOADS[name](args.seed, args.smoke),
                                 args.seconds, tmp / name)
                result["seed"] = args.seed
                print_report(result)
                results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - any other failure: no result line
        traceback.print_exc()
        return 2
    finally:
        reap_children()
        shutil.rmtree(tmp, ignore_errors=True)

    for result in results:
        result.update(stamp=stamp, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, smoke=args.smoke)
        path = OUT_DIR / (f"{result['workload']}-seed{args.seed}-"
                          f"trace{args.trace}.json")
        path.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"stamp: {json.dumps(stamp, sort_keys=True)}")
    units = dict(END_TO_END)
    if args.trace:
        units = results[0]["units"]
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k):
                {"value": v, "unit": units[k]}
            for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
