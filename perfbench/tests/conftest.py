"""Make the program sources importable when these tests run from the
repository root (``python -m pytest perfbench/tests``)."""

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
