import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark imports cppc from the checkout's sources and its own modules
# by name, as ``run.py`` does.
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
