"""The Jetson Nano platform against the form that kept a utilisation log.

``reference_platform`` keeps the platform that recorded a per-tick
``UtilisationSample`` (four per-core utilisations drawn from its generator)
and counted ticks and deadline misses.  Over drawn tick sequences on the
HIL and the field spec, every field the budget still has must be equal
after each tick, and so must the generator's state: the per-core draws are
kept, so every later tick's jitter and every record stay as they were.
"""

from dataclasses import fields

import reference_platform as reference
from hypothesis import given, settings, strategies as st

from repro.core.landing_system import ModuleTimings
from repro.core.platform import TickBudget
from repro.hil.jetson import JetsonNanoPlatform, JetsonNanoSpec

# Zero or a nominal-latency-sized cost per module, so ticks both keep up and
# build a backlog (deadline misses, skipped mapping) within one sequence.
costs = st.one_of(st.just(0.0), st.floats(0.0, 0.2))
timings = st.builds(ModuleTimings, detection=costs, mapping=costs, planning=costs)


def assert_same_ticks(ours, ref, ticks):
    """Schedule ``ticks`` on both; every budget field and the generator
    state must be equal after each tick.  Returns our budgets."""
    budgets = []
    for module_timings, tick_period in ticks:
        got = ours.schedule_tick(module_timings, tick_period)
        want = ref.schedule_tick(module_timings, tick_period)
        for budget_field in fields(TickBudget):
            name = budget_field.name
            assert getattr(got, name) == getattr(want, name), name
        assert ours._rng.bit_generator.state == ref._rng.bit_generator.state
        budgets.append(got)
    # The reference logged one sample, with one value per core, per tick.
    assert len(ref.monitor) == ref.ticks == len(ticks)
    assert all(len(s.per_core_utilisation) == ours.spec.cpu_cores for s in ref.monitor.samples)
    return budgets


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from([JetsonNanoSpec(), JetsonNanoSpec.real_world()]),
    seed=st.integers(0, 2**32 - 1),
    map_bytes=st.one_of(st.none(), st.integers(0, 10**7)),
    ticks=st.lists(st.tuples(timings, st.sampled_from([0.2, 0.1, 0.04])), min_size=1, max_size=40),
)
def test_budgets_and_draws_match_the_logging_platform(spec, seed, map_bytes, ticks):
    ours = JetsonNanoPlatform(spec=spec, seed=seed)
    ref = reference.ReferenceJetsonNanoPlatform(spec=spec, seed=seed)
    if map_bytes is not None:
        ours._map_memory_provider = ref._map_memory_provider = lambda: map_bytes
    assert_same_ticks(ours, ref, ticks)


def test_a_heavy_load_compares_the_lagging_branch():
    """A steady heavy load misses deadlines and skips mapping, so the
    comparison above is known to reach the lagging platform's branch."""
    heavy = ModuleTimings(detection=0.03, mapping=0.028, planning=0.12)
    ours = JetsonNanoPlatform(seed=1)
    ref = reference.ReferenceJetsonNanoPlatform(seed=1)
    budgets = assert_same_ticks(ours, ref, [(heavy, 0.2)] * 100)
    assert sum(b.deadline_missed for b in budgets) == ref.deadline_misses > 0
    assert any(b.skip_mapping for b in budgets)
