"""Locate the degmatch source of the checkout the benchmark sits in.

The benchmark always measures ``src/`` next to its own directory, never
an installed copy, and stops when that source is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def use_source():
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "degmatch" / "__init__.py").is_file():
        sys.exit(f"benchmark: no degmatch package under {SRC}")
    sys.path.insert(0, str(SRC))
