"""The repository's layered serving benchmark (see ``perfbench/README.md``).

Importing this package puts the checkout's ``src`` directory first on
``sys.path``, so the benchmark always measures the source tree it sits
in, whether or not ``repro`` is installed.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
