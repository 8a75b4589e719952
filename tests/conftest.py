"""Child processes started by the tests (`python -m mlcr.cli ...`) import
`mlcr` from this checkout's `src`, as the tests themselves do through the
`pythonpath` setting in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
