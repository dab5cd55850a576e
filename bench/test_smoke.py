"""Smoke test: every workload at a tiny size, traced and untraced.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

import os
import sys
from time import perf_counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

DECLARED = run.declared_metrics()


@pytest.fixture(scope="module")
def results():
    return {(name, trace): run.measure(name, 1, 0.0, trace, tiny=True)
            for name in run.WORKLOADS for trace in (False, True)}


def test_every_declared_metric_is_emitted_with_a_unit(results):
    measured_layers = set()
    for (name, trace), result in results.items():
        kind = "per_layer" if trace else "end_to_end"
        emitted = run.emit(result, DECLARED[kind])
        assert set(emitted) == set(DECLARED[kind])
        assert all(m["unit"] for m in emitted.values())
        if trace:
            measured_layers |= set(result["metrics"])
        else:
            assert set(result["metrics"]) == set(DECLARED["end_to_end"])
            assert all(v > 0 for v in result["metrics"].values()), name
    assert measured_layers == set(DECLARED["per_layer"])


def test_no_correctness_check_fails(results):
    for key, result in results.items():
        assert result["attempted"] >= 1, key
        assert result["failed"] == 0, (key, result["extra"]["failures"])


def test_deadline_misses_only_on_named_shapes(results):
    import workloads

    named = {"%d,%d" % shape for shape in workloads.FACTOR_TINY.slow_shapes}
    for trace in (False, True):
        extra = results["factor", trace]["extra"]
        assert extra["unexpected_misses"] == []
        assert {miss.rsplit(",", 1)[0]
                for miss in extra["deadline_misses"]} <= named


def test_deadline_interrupts_a_pure_python_loop():
    import workloads

    def spin():
        while True:
            pass

    t0 = perf_counter()
    with pytest.raises(workloads.DeadlineMiss):
        workloads.with_deadline(0.05, spin)
    assert perf_counter() - t0 < 1.0


def test_second_seed_gives_the_same_structured_verdicts(results):
    first = results["search", False]["extra"]["verdicts"]
    second = run.measure("search", 2, 0.0, False, tiny=True)
    assert first and second["extra"]["verdicts"] == first


def visited(n, m, subset=None):
    """Subsets a column-1-pinned search visits, sizes ascending and masks
    ascending, up to ``subset`` (or all of them)."""
    count = 0
    for size in range(n, m - n + 1):
        for mask in range(1 << (m - 1)):
            if bin(mask).count("1") != size - 1:
                continue
            count += 1
            bits = tuple(b + 2 for b in range(m - 1) if mask >> b & 1)
            if (1,) + bits == subset:
                return count
    return count


def test_search_counts_match_enumeration():
    import workloads

    assert workloads.full_search_count(3, 9) == visited(3, 9)
    assert workloads.full_search_count(3, 5) == 0
    for subset in ((1, 3, 4, 8), (1, 2, 3), (1, 5, 6, 7, 9)):
        assert (workloads.certificate_search_count(3, 9, subset)
                == visited(3, 9, subset))
