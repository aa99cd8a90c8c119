"""Regenerate the CLI golden outputs from the current source tree.

    python3 perfbench/goldens.py

Each README command runs as ``python -m hktwist`` with src/ on the path,
as text, --json, --digits 60 and --json --digits 60; its standard output is
written byte for byte to perfbench/goldens/.  The cli workload compares
every run against these files.  Regenerate only when an output change is
intended, and review the diff.
"""

from __future__ import annotations

import subprocess
import sys

from workloads import CLI_COMMANDS, GOLDEN_DIR, ROOT, cli_env, golden_path


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "hktwist", *argv], capture_output=True,
                              env=cli_env(), cwd=ROOT)
        if proc.returncode != 0 or proc.stderr:
            print(f"hktwist {' '.join(argv)} failed: {proc.stderr.decode()}", file=sys.stderr)
            return 1
        golden_path(argv).write_bytes(proc.stdout)
    print(f"wrote {len(CLI_COMMANDS)} golden files to {GOLDEN_DIR.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
