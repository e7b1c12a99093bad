"""The program has no third-party imports (pyproject: ``dependencies = []``).

numpy is a *test* dependency (``tests/test_message_codec.py`` feeds its
integer types to the codec), so the check runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = (
    "repro.core",
    "repro.collective",
    "repro.rpc",
    "repro.chaos",
    "repro.service.workload",
    "repro.p4",
)


def test_scenario_packages_import_neither_numpy_nor_networkx():
    code = (
        "import importlib, sys\n"
        f"for name in {PACKAGES!r}: importlib.import_module(name)\n"
        "print([m for m in ('numpy', 'networkx') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
