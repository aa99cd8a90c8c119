"""CLI branches the README goldens never reach, pinned byte for byte.

Each expected output in ``tests/cli_pins/`` was captured from the CLI before
its handlers were merged into one envelope, so a rendering that drifts fails
here.  An argument ``@name.json`` names a family file in the same directory.
"""

from pathlib import Path

import pytest

from hktwist.cli import main

PIN_DIR = Path(__file__).resolve().parent / "cli_pins"

COMMANDS = [
    ("threshold", "--family", "K3"),
    ("threshold", "--family", "K3_3"),
    ("poly", "--family", "K3_3"),
    ("threshold", "--family", "@n2_no_root.json"),
    ("gamma-p", "--family", "K3_2", "--q", "6"),
    ("gamma-p", "--family", "@n1_negative_root.json", "--q", "32"),
    ("cone-test", "--family", "K3", "--a", "2", "--q-delta", "31"),
    ("cone-test", "--family", "K3", "--a", "2", "--q-delta", "31", "--not-nef"),
    ("square", "z-pairing"),
]
PINS = [cmd + variant for cmd in COMMANDS for variant in ((), ("--json",))]


def pin_path(argv) -> Path:
    return PIN_DIR / ("_".join(a.lstrip("@").replace(".json", "") for a in argv) + ".out")


def resolve(argv) -> list[str]:
    return [f"@{PIN_DIR / a[1:]}" if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("argv", PINS, ids=" ".join)
def test_cli_output_matches_pin(argv, capsys):
    code = main(resolve(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == pin_path(argv).read_bytes()
