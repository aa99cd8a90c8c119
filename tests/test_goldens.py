"""Every README command's output, byte for byte, against the committed goldens.

The golden files live in ``perfbench/goldens/`` and are written by
``python3 perfbench/goldens.py``; this test only reads them.  Each command
runs in-process through ``hktwist.cli.main``.
"""

import sys
from pathlib import Path

import pytest

from hktwist.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CLI_COMMANDS, golden_path  # noqa: E402


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == golden_path(argv).read_bytes()
