"""Compare two benchmark results, refusing results from different machines.

::

    python3 perfbench/compare.py BASE.json NEW.json

Both files are results ``perfbench/run.py`` wrote under
``.perfbench_out/``.  The comparison is refused (exit 2) when their
machine stamps differ (CPU count or model, python, numpy or scipy
version, scipy importability) or when they measured different things
(workload, trace mode, run length, smoke size).  Otherwise each metric
is printed with its relative change; an end-to-end metric that got
worse by more than its bound in ``BENCHMARK.json`` makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import REPO_ROOT  # noqa: E402
from perfbench.stamp import stamp_mismatches  # noqa: E402

SAME_RUN_FIELDS = ("workload", "trace", "seconds", "smoke")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    problems = stamp_mismatches(base["stamp"], new["stamp"])
    problems += [f"{k}: {base.get(k)!r} != {new.get(k)!r}"
                 for k in SAME_RUN_FIELDS if base.get(k) != new.get(k)]
    if problems:
        print("refusing to compare:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{base['workload']}: {base['stamp']['git_sha'][:12]} -> "
          f"{new['stamp']['git_sha'][:12]}")
    regressed = False
    for name, old_value in base["metrics"].items():
        value = new["metrics"][name]
        change = (value - old_value) / old_value if old_value else 0.0
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            if worse > bounds[name]["bound"]:
                verdict = f"  WORSE than bound {bounds[name]['bound']:.0%}"
                regressed = True
        print(f"  {name:34s} {old_value:14.4f} {value:14.4f} "
              f"{change:+8.1%}{verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
