"""Regenerate the committed expected outputs under ``expected/``.

    python3 benchmarks/regen_expected.py [item_id ...]

Runs every fixed-family item (all of them, or the ones named) through
``qconic.cli.main`` with cold caches and stores its output: ``analyze
--json`` verbatim, ``verify a`` without ``elapsed_seconds``.  Only run
this when a change is meant to alter the answers; the gate trusts these
files.
"""

from __future__ import annotations

import os
import sys

import run
import workloads
import gate


def main(argv) -> int:
    run.import_qconic()
    items = [it for w in workloads.WORKLOADS for it in workloads.fixed_items(w)]
    items.append(workloads.contact4_k5_item())
    if argv:
        items = [it for it in items if it.item_id in argv]
    workdir = run.work_dir("expected", 0)
    workloads.write_inputs(items, workdir)
    os.makedirs(gate.EXPECTED_DIR, exist_ok=True)
    for item in items:
        _elapsed, rc, text, _err = run.call_cli(item.argv(workdir))
        if rc != 0:
            raise SystemExit(f"{item.item_id}: exit code {rc}")
        if item.document is None:
            text = gate.canonical_verify(text)
        with open(gate.expected_path(item.item_id), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {item.item_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
