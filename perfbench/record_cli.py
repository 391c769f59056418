#!/usr/bin/env python3
"""Record the reference exit codes and stdout of the cli-mix commands.

Run from the root of a checkout whose CLI output is known to be right:

    python3 perfbench/record_cli.py

Malformed-input commands are not recorded; their reference is always a
usage error with empty stdout.
"""

import json
from pathlib import Path

from cli_mix import COMMANDS, EXPECTED_PATH, MALFORMED, child_env, run_subprocess

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    env = child_env(ROOT / "src")
    recorded = {}
    for name, argv in COMMANDS.items():
        if name in MALFORMED:
            continue
        code, stdout, _ = run_subprocess(argv, env)
        recorded[name] = {"exit": code, "stdout": stdout}
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} references to {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
