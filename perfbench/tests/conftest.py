"""Make the benchmark's modules and the program importable."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for path in (_HERE.parent, _HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
