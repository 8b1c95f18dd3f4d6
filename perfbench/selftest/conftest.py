"""Make the benchmark's modules and the program importable in its tests.

Appended, not prepended: the repository's own ``tests`` namespace package
must keep resolving to the repository's directory when both suites run
in one session.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.append(str(path))
