"""Rewrite ``runs.json`` from the current code (canonical backend).

Run from the repository root::

    PYTHONPATH=src:. python -m tests.golden.regenerate

Only after a deliberate change to what runs compute, naming in
CHANGES.md the keys that moved and why; the tier-1 suite never runs
this script.
"""

from __future__ import annotations

import json

from tests.golden.cases import CASES, RUNS_PATH, run_case


def main() -> None:
    runs = {name: run_case(name) for name in sorted(CASES)}
    RUNS_PATH.write_text(json.dumps(runs, indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {len(runs)} cases to {RUNS_PATH}")


if __name__ == "__main__":
    main()
