"""Shared fixtures for the benchmark harness.

The campaigns are executed once per pytest session (module-scoped fixtures
would re-run them per file) and then rendered by the individual benches.
Campaign size is controlled by REPRO_BENCH_SCENARIOS / REPRO_BENCH_REPETITIONS
(read here, and nowhere in the library); the defaults, a campaign's own
6 x 1, keep the whole benchmark suite at roughly ten minutes of wall clock,
while 100 / 3 reproduces the paper-scale campaign.  REPRO_BENCH_WORKERS sets
the SIL, HIL and field campaigns' worker processes.

This conftest also owns ``BENCH_results.json`` (path overridable via
``$REPRO_BENCH_RESULTS``): pytest-benchmark timings are harvested
automatically for every bench in this directory, other modules record custom
stats through the ``bench_results`` fixture, and the file is merged on write
— one ``suites`` section per benchmark module — so running the microbenches
and the campaign-throughput bench in separate sessions never clobbers the
other's numbers.

The overhead benches compare two campaigns through the ``lockstep`` fixture,
which runs them in forked processes that take turns on the CPU (POSIX only).
"""

import gc
import json
import os
import pickle
import select
import signal
import sys
import time
import traceback
from pathlib import Path

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import Campaign, build_evaluation_suite, field_suite, mls_v3  # noqa: E402
from repro.bench.campaign import DEFAULT_REPETITIONS, DEFAULT_SCENARIOS  # noqa: E402


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def bench_scenario_count() -> int:
    """Paper-campaign scenarios, via ``REPRO_BENCH_SCENARIOS``."""
    return int(os.environ.get("REPRO_BENCH_SCENARIOS", DEFAULT_SCENARIOS))


def bench_repetitions() -> int:
    """Repetitions per scenario, via ``REPRO_BENCH_REPETITIONS``."""
    return int(os.environ.get("REPRO_BENCH_REPETITIONS", DEFAULT_REPETITIONS))


def bench_workers() -> int:
    """Worker processes for the campaign fixtures, via ``REPRO_BENCH_WORKERS``."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", 1))


def bench_campaign(*systems) -> Campaign:
    """A paper campaign over ``systems`` at the environment's size."""
    return (
        Campaign(*systems)
        .scenarios(bench_scenario_count())
        .repetitions(bench_repetitions())
        .parallel(bench_workers())
    )


# --------------------------------------------------------------------- #
# BENCH_results.json: machine-readable results, merged across sessions
# --------------------------------------------------------------------- #
#: Collected stats for this session: {suite: {bench name: {stat: value}}}.
_BENCH_RESULTS: dict[str, dict[str, dict[str, float]]] = {}

BENCH_RESULTS_SCHEMA = 2


def _results_path() -> Path:
    default = Path(_BENCH_DIR).parent / "BENCH_results.json"
    return Path(os.environ.get("REPRO_BENCH_RESULTS", default))


def _suite_name(module_name: str) -> str:
    return module_name.rpartition(".")[2].removeprefix("test_")


@pytest.fixture
def bench_results(request):
    """Recorder for custom (non-pytest-benchmark) stats.

    ``bench_results(name, runs_per_s=..., seconds=...)`` files the stats
    under this module's suite section of ``BENCH_results.json``.
    """
    suite = _suite_name(request.module.__name__)

    def record(name: str, **stats: float) -> None:
        _BENCH_RESULTS.setdefault(suite, {})[name] = dict(stats)

    return record


@pytest.fixture(autouse=True)
def _collect_benchmark_stats(request):
    """Harvest pytest-benchmark stats from every bench that used the fixture."""
    yield
    fixture = request.node.funcargs.get("benchmark")
    stats = getattr(getattr(fixture, "stats", None), "stats", None)
    mean = getattr(stats, "mean", None)
    if not mean:  # benchmark fixture unused, disabled, or zero-time
        return
    suite = _suite_name(request.module.__name__)
    _BENCH_RESULTS.setdefault(suite, {})[request.node.name] = {
        "mean_s": mean,
        "stddev_s": getattr(stats, "stddev", 0.0),
        "min_s": getattr(stats, "min", mean),
        "rounds": getattr(stats, "rounds", len(getattr(stats, "data", []))),
        "throughput_ops_per_s": 1.0 / mean,
    }


# --------------------------------------------------------------------- #
# lockstep CPU timing for the overhead benches
# --------------------------------------------------------------------- #
#: CPU slice each lockstep process runs before the next one's turn.
LOCKSTEP_QUANTUM_S = 0.005


def _lockstep_child(run, ready_w: int, go_r: int, out_w: int) -> None:
    """Forked child: report ready, wait for go, then send ``(cpu_s, result)``."""
    try:
        # Leave the inherited heap out of garbage collection: its size is
        # the parent's, not the run's.
        gc.freeze()
        os.write(ready_w, b"r")
        os.read(go_r, 1)
        start = time.process_time()
        result = run()
        payload = pickle.dumps((time.process_time() - start, result))
    except BaseException:
        payload = pickle.dumps((None, traceback.format_exc()))
    with os.fdopen(out_w, "wb") as out:
        out.write(payload)


def lockstep_cpu_seconds(*runs):
    """Run each callable in a forked process, taking turns on the CPU.

    Only one process runs at a time: each gets a :data:`LOCKSTEP_QUANTUM_S`
    slice in turn (``SIGCONT`` / ``SIGSTOP``) until it returns.  A shared
    runner's speed drifts by tens of percent within a second, so two runs
    timed one after the other differ by more than a 5% overhead bound; runs
    that alternate every few milliseconds see the same host.  Returns one
    ``(cpu_seconds, result)`` per callable, in order (results come back
    pickled).
    """
    children: list[tuple[int, int, int]] = []
    payloads: dict[int, tuple] = {}
    try:
        for run in runs:
            ready_r, ready_w = os.pipe()
            go_r, go_w = os.pipe()
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    _lockstep_child(run, ready_w, go_r, out_w)
                finally:
                    os._exit(0)
            for fd in (ready_w, go_r, out_w):
                os.close(fd)
            os.read(ready_r, 1)
            os.close(ready_r)
            os.kill(pid, signal.SIGSTOP)
            children.append((pid, go_w, out_r))
        for _, go_w, _ in children:
            os.write(go_w, b"g")
            os.close(go_w)
        while len(payloads) < len(children):
            for index, (pid, _, out_r) in enumerate(children):
                if index in payloads:
                    continue
                os.kill(pid, signal.SIGCONT)
                if select.select([out_r], [], [], LOCKSTEP_QUANTUM_S)[0]:
                    # Done: it keeps running until the payload is written.
                    with os.fdopen(out_r, "rb") as out:
                        payloads[index] = pickle.loads(out.read())
                    os.waitpid(pid, 0)
                else:
                    os.kill(pid, signal.SIGSTOP)
    finally:
        for index, (pid, _, _) in enumerate(children):
            if index not in payloads:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for index, (cpu_s, result) in sorted(payloads.items()):
        if cpu_s is None:
            raise RuntimeError(f"lockstep run {index} failed:\n{result}")
    return [payloads[index] for index in range(len(children))]


@pytest.fixture
def lockstep():
    """:func:`lockstep_cpu_seconds`, for benches that compare two campaigns."""
    return lockstep_cpu_seconds


def _load_existing_suites(path: Path) -> dict[str, dict[str, dict[str, float]]]:
    """Previously written suite sections (tolerating the schema-1 layout)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as error:
        import warnings

        warnings.warn(
            f"existing {path} is unreadable ({error}); its previous bench "
            f"history will be replaced by this session's results",
            RuntimeWarning,
            stacklevel=2,
        )
        return {}
    suites: dict[str, dict[str, dict[str, float]]] = {}
    if data.get("schema") == 1 and data.get("suite"):
        entries = data.get("benchmarks", [])
        suites[str(data["suite"])] = {
            str(entry["name"]): {k: v for k, v in entry.items() if k != "name"}
            for entry in entries
            if isinstance(entry, dict) and "name" in entry
        }
    elif isinstance(data.get("suites"), dict):
        for suite, entries in data["suites"].items():
            suites[str(suite)] = {
                str(entry["name"]): {k: v for k, v in entry.items() if k != "name"}
                for entry in entries
                if isinstance(entry, dict) and "name" in entry
            }
    return suites


def _prune_stale_suites(
    suites: dict[str, dict[str, dict[str, float]]],
) -> dict[str, dict[str, dict[str, float]]]:
    """Drop tracked results whose benchmark no longer exists.

    Merge-on-write preserves history across partial sessions, which also
    means a deleted or renamed bench would otherwise haunt the file forever.
    A suite is dropped when its ``test_<suite>.py`` module is gone; within a
    live module, ``test_``-prefixed entries (pytest-benchmark node names) are
    dropped when the function no longer appears in the module source.
    Custom-named meters (e.g. ``campaign_serial``) are chosen at runtime, so
    they live and die with their module only.
    """
    pruned: dict[str, dict[str, dict[str, float]]] = {}
    for suite, benches in suites.items():
        module_path = Path(_BENCH_DIR) / f"test_{suite}.py"
        if not module_path.is_file():
            continue
        try:
            source = module_path.read_text(encoding="utf-8")
        except OSError:
            pruned[suite] = dict(benches)
            continue
        kept = {
            name: stats
            for name, stats in benches.items()
            if not name.startswith("test_")
            or f"def {name.partition('[')[0]}(" in source
        }
        if kept:
            pruned[suite] = kept
    return pruned


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's collected stats into BENCH_results.json."""
    if not _BENCH_RESULTS:
        return
    path = _results_path()
    suites = _prune_stale_suites(_load_existing_suites(path))
    # Merge per bench, not per suite: running a subset of a module (-k)
    # must refresh only the benches that actually ran, never discard the
    # rest of that module's tracked results.
    for suite, benches in _BENCH_RESULTS.items():
        suites.setdefault(suite, {}).update(benches)
    payload = {
        "schema": BENCH_RESULTS_SCHEMA,
        "suites": {
            suite: [
                {"name": name, **{k: v for k, v in sorted(stats.items())}}
                for name, stats in sorted(suites[suite].items())
            ]
            for suite in sorted(suites)
        },
    }
    # Write-temp-then-replace: a session killed mid-write must not truncate
    # the accumulated bench history.
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def pytest_collection_modifyitems(items):
    """Every benchmark runs a campaign: mark them all slow for -m filtering.

    This hook receives the *whole* session's items (conftest hooks are not
    directory-scoped), so restrict the marker to items collected from this
    directory — otherwise ``-m "not slow"`` deselects the entire test suite.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR + os.sep):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def sil_campaign_results():
    """RQ1: the SIL campaign over MLS-V1/V2/V3."""
    return bench_campaign().run()


@pytest.fixture(scope="session")
def hil_campaign_result():
    """RQ2: the HIL campaign (MLS-V3 on the Jetson Nano model)."""
    return bench_campaign(mls_v3()).platform("jetson-nano").run()["MLS-V3"]


@pytest.fixture(scope="session")
def field_campaign_result():
    """RQ3: the real-world (field) campaign, one flight per scenario."""
    suite = build_evaluation_suite().subset(max(4, bench_scenario_count() // 2))
    return (
        Campaign(mls_v3())
        .suite(field_suite(suite))
        .platform("field")
        .repetitions(1)
        .parallel(bench_workers())
        .run()["MLS-V3"]
    )
