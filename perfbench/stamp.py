"""Machine and source stamps carried by every benchmark result.

Numbers are comparable only between runs on the same kind of machine
and software: CPU count and model, interpreter and numpy/scipy
versions, and whether scipy imports at all (``auto`` picks another
eigensolver without it).  :func:`stamp_mismatches` is the rule the compare
step applies; the source identity (git sha, or a digest of ``src``
when the checkout is not a git repository) is recorded but is what a
comparison is *meant* to differ in.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from typing import Dict, List

import numpy as np

from perfbench import REPO_ROOT, SRC_DIR

#: Stamp fields that must match for two results to be compared.
MACHINE_FIELDS = ("nproc", "cpu_model", "python", "numpy", "scipy",
                  "scipy_importable")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_stamp() -> Dict[str, object]:
    try:
        import scipy
        scipy_version, importable = scipy.__version__, True
    except ImportError:
        scipy_version, importable = None, False
    return {
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "scipy_importable": importable,
    }


def stamp_mismatches(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """The machine fields on which two stamps differ (empty: comparable)."""
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in MACHINE_FIELDS
            if a.get(k) != b.get(k)]
