"""The benchmark's own tests, in quick mode (one mission per workload).

    python3 perfbench/selftest.py

Checks, for every workload:

* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
  prints, with the same units;
* an untraced quick run prints every end-to-end metric with its unit and
  its records match the committed expectation;
* a traced quick run prints every per-layer metric with its unit, its
  records equal the untraced run's, and a second traced run repeats every
  exact work count;

and, once, that a planted mismatch in the expectations makes the run
incorrect with a non-zero ``bench.error_rate``.  Exits 1 on any failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from flight import EXACT_COUNTS  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def quick(workload: str, trace: int, *extra: str) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "7", "--trace", str(trace), "--quick", *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json names the workloads run.py flies",
    )
    check(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
        "BENCHMARK.json end-to-end metrics match run.py",
    )
    check(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
        "BENCHMARK.json per-layer metrics match run.py",
    )

    for name in WORKLOADS:
        plain = quick(name, 0)
        check(plain["correct"] and plain["failed"] == 0, f"{name}: untraced records as expected")
        check(units(plain) == END_TO_END, f"{name}: every end-to-end metric printed with its unit")
        first = quick(name, 1)
        check(first["correct"] and first["failed"] == 0, f"{name}: traced records equal untraced")
        check(units(first) == PER_LAYER, f"{name}: every per-layer metric printed with its unit")
        second = quick(name, 1)
        repeated = all(
            first["metrics"][count]["value"] == second["metrics"][count]["value"]
            for count in EXACT_COUNTS
        )
        check(repeated, f"{name}: exact work counts repeat across traced runs")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    planted = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        expected = planted / "expected"
        shutil.copytree(HERE / "expected", expected)
        path = expected / "v1-paper.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        first_key = sorted(data["records"])[0]
        data["records"][first_key]["mission_time"] += 1.0
        path.write_text(json.dumps(data), encoding="utf-8")
        plain = quick("v1-paper", 0, "--expected", str(expected))
        check(
            not plain["correct"] and plain["failed"] > 0,
            "a planted record mismatch fails the untraced run",
        )
        traced = quick("v1-paper", 1, "--expected", str(expected))
        check(
            not traced["correct"] and traced["metrics"]["bench.error_rate"]["value"] > 0,
            "a planted record mismatch is counted in bench.error_rate",
        )
    finally:
        shutil.rmtree(planted, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
