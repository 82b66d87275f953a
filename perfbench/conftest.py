"""Lets the benchmark's own tests import transdim from src/, the flagship
helpers from tests/ and the benchmark's modules from this directory."""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "tests", HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
