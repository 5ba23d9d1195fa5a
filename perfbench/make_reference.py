#!/usr/bin/env python3
"""Record the reference final CSV rows of the run workloads.

    python3 perfbench/make_reference.py

Run once on the commit that defines the benchmark; later commits are checked
against the rows it writes to perfbench/reference.json, one per workload and
initial-condition seed.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import IC_SEEDS, REFERENCE_FILE, make_workload

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench_work"))
    rows = {}
    try:
        for name in ("desk-n32", "large-n64"):
            for seed in range(IC_SEEDS):
                workload = make_workload(name, ROOT, work, seed)
                workload.prepare()
                workload.operate()
                csv_path = workload._config.output.directory / "diagnostics.csv"
                last = list(csv.DictReader(csv_path.read_text().splitlines()))[-1]
                rows[f"{name}/{workload.ic_seed}"] = {k: float(v) for k, v in last.items()}
                print(name, workload.ic_seed, last["l2_pair"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
