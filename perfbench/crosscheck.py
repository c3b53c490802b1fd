"""Cross-check the outside-in layer spans against the in-program phase spans.

    python3 perfbench/crosscheck.py [workload ...]

For each workload, a traced benchmark run (``run.py --trace 1``) gives the
per-layer self times, and a separate process flies the same slice through
``Campaign.trace(...)`` and renders ``python -m repro.obs report --wall``.
Both are reduced to shares of the same five or six phases:

    physics  vehicle.busy_s
    sense    sensors.camera_busy_s + sensors.depth_busy_s
    detect   perception.busy_s
    map      mapping.fuse_busy_s
    plan     core.decide_self_s + planning.busy_s + mapping.collision_busy_s
             (the in-program span covers all of ``decide``)
    harness  faults.busy_s (fault workloads only)

If a share differs by more than :data:`TOLERANCE`, the outside-in spans are
nested wrongly (or a wrapper misses calls) and the script exits 1.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Largest accepted difference between the two shares of one phase.
TOLERANCE = 0.05

LAYER_PHASES = {
    "physics": ("vehicle.busy_s",),
    "sense": ("sensors.camera_busy_s", "sensors.depth_busy_s"),
    "detect": ("perception.busy_s",),
    "map": ("mapping.fuse_busy_s",),
    "plan": ("core.decide_self_s", "planning.busy_s", "mapping.collision_busy_s"),
    "harness": ("faults.busy_s",),
}

_FLY_TRACED = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
from workloads import WORKLOADS, Flight
flight = Flight(WORKLOADS[{name!r}], 2025, quick=False)
flight.fly(flight.suite, {campaign!r}, trace_dir={trace!r})
"""


def outside_in(name: str) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {
        phase: sum(metrics[key]["value"] for key in keys)
        for phase, keys in LAYER_PHASES.items()
    }


def in_program(name: str, scratch: Path) -> dict[str, float]:
    trace = scratch / "trace"
    code = _FLY_TRACED.format(
        src=str(ROOT / "src"), here=str(HERE), name=name,
        campaign=str(scratch / "campaign"), trace=str(trace),
    )
    env_tmp = ROOT / ".perfbench_work" / "tmp"
    env_tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(env_tmp), "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
    report = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report", str(trace), "--wall"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    walls: dict[str, float] = {}
    header = None
    for line in report.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if "Phase" in cells and "Wall s" in cells:
            header = cells
        elif header and len(cells) == len(header) and cells[header.index("Phase")] in LAYER_PHASES:
            walls[cells[header.index("Phase")]] = float(cells[header.index("Wall s")])
        elif header and not line.strip():
            break
    return walls


def shares(seconds: dict[str, float], phases) -> dict[str, float]:
    total = sum(seconds.get(phase, 0.0) for phase in phases)
    return {phase: seconds.get(phase, 0.0) / total for phase in phases}


def main(names: list[str]) -> int:
    failed = False
    for name in names or list(WORKLOADS):
        phases = [p for p in LAYER_PHASES if p != "harness" or WORKLOADS[name].faults]
        scratch = Path(tempfile.mkdtemp(prefix="crosscheck-", dir=ROOT / ".perfbench_work"))
        try:
            program = shares(in_program(name, scratch), phases)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        layers = shares(outside_in(name), phases)
        print(f"{name}: phase  obs-report  outside-in")
        for phase in phases:
            differs = abs(program[phase] - layers[phase]) > TOLERANCE
            failed |= differs
            print(f"  {phase:8s} {program[phase]:10.1%} {layers[phase]:11.1%}{'  MISMATCH' if differs else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
