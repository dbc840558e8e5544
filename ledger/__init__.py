"""The gesture-latency ledger: this repository's benchmark.

Four seeded workloads are driven against the program's public entry
points from the outside; every number that leaves this package is named
in ``BENCHMARK.json`` and explained in ``ledger/README.md``.

The package makes the in-tree ``src/`` importable the way the root
``conftest.py`` does for the test suite, so ``python3 -m ledger`` runs
from a bare checkout with no install step and no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

#: Root of the checkout the ledger measures (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
