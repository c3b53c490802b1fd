"""Regenerate the committed expectations in ``expected/``.

    python3 perfbench/expect.py [workload ...]

Flies each workload's slice once, in suite order, at the paper seed and
writes its records (``RunRecord.to_dict()`` minus ``scenario_fingerprint``)
to ``expected/<workload>.json``; a dispatch workload's rendered analysis
report goes to ``expected/<workload>.report.md``.  Only regenerate when a
change is meant to alter mission outcomes, and say so in its description.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    PAPER_SEED,
    WORKLOADS,
    Flight,
    expected_path,
    record_data,
    record_key,
    report_path,
)


def main(names: list[str]) -> int:
    directory = HERE / "expected"
    directory.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        flight = Flight(workload, PAPER_SEED, quick=False)
        work = HERE.parent / ".perfbench_work"
        work.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="expect-", dir=work))
        try:
            records, report = flight.fly(flight.suite, scratch / "campaign")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        payload = {
            "workload": name,
            "suite_seed": PAPER_SEED,
            "records": {record_key(r): record_data(r) for r in records},
        }
        expected_path(directory, workload).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        if report is not None:
            report_path(directory, workload).write_text(report, encoding="utf-8")
        print(f"{name}: {len(records)} records", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
