"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They show that its checks can fail (a corrupted expectation or digest, or
an item that raises, makes fail_ratio > 0), that the outside-in trace
accounts for time consistently and leaves sphlie as it found it, and that
the ladder's frozen answers agree with the independent oracle in
tests/oracles.py (imported read-only).
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for sub in ("src", "perfbench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import metrics  # noqa: E402
import workloads  # noqa: E402
from hostref import HostReference  # noqa: E402
from spantrace import Tracer  # noqa: E402
from worker import end_to_end, run_pass  # noqa: E402

FAST_ENTRIES = ("sl2_so2", "sl2_zero")


@pytest.fixture(scope="module")
def catalog_items(tmp_path_factory):
    items = workloads.build_items("catalog", 0, tmp_path_factory.mktemp("in"),
                                  workloads.load_golden())
    return {item.label: item for item in items}


def run_once(items, tracer=None):
    return run_pass(items, HostReference(), tracer)


def fail_ratio(items) -> float:
    times, failures = run_once(items)
    return len(failures) / len(times)


def test_fast_catalog_items_pass_as_recorded(catalog_items):
    assert fail_ratio([catalog_items[n] for n in FAST_ENTRIES]) == 0


def test_corrupted_expectation_counts_as_failure(catalog_items):
    item = catalog_items["sl2_so2"]
    good = dict(item.expect)
    item.expect["rank"] = good["rank"] + 1
    try:
        times, failures = run_once([item])
    finally:
        item.expect = good
    assert len(failures) / len(times) > 0
    assert failures == [("sl2_so2", "rank: expected 2, got 1")]


def test_corrupted_digest_counts_as_failure(catalog_items):
    item = catalog_items["sl2_zero"]
    good = item.golden_digest
    item.golden_digest = "0" * 64
    try:
        ratio = fail_ratio([item])
    finally:
        item.golden_digest = good
    assert ratio > 0


def test_wrong_exit_code_counts_as_failure(catalog_items):
    item = catalog_items["sl2_zero"]
    item.exit_code = 0
    try:
        times, failures = run_once([item])
    finally:
        item.exit_code = 1
    assert "exit code 1, expected 0" in failures[0][1]


class Raises:
    label = "raises"

    def run(self):
        raise ZeroDivisionError("boom")

    def check(self, result):
        raise AssertionError("check must not run after run() raised")


def test_raising_item_fails_once_and_the_pass_continues(catalog_items):
    times, failures = run_once([Raises(), catalog_items["sl2_so2"]])
    assert len(times) == 2
    assert failures == [("raises", "raised ZeroDivisionError('boom')")]


def test_missing_golden_digest_is_a_failure(tmp_path):
    items = workloads.build_items("catalog", 0, tmp_path, {})
    item = next(i for i in items if i.label == "sl2_so2")
    assert run_once([item])[1] == [("sl2_so2", "no golden digest recorded")]


def test_trace_accounts_for_time_and_restores_sphlie(catalog_items):
    import sphlie.cli
    import sphlie.linalg
    import sphlie.liealg
    originals = (sphlie.linalg.rref, sphlie.cli.main,
                 sphlie.liealg.LieAlgebra.__init__)
    tracer = Tracer()
    items = [catalog_items[n] for n in FAST_ENTRIES]
    times, failures = run_once(items, tracer)
    assert failures == []
    assert (sphlie.linalg.rref, sphlie.cli.main,
            sphlie.liealg.LieAlgebra.__init__) == originals
    assert tracer.item_self_check() == []
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 2
    assert summary["liealg.LieAlgebra.build"]["calls"] >= 2
    # rref is reached both directly and through `from .linalg import rref`
    assert summary["linalg.rref"]["calls"] > 0
    assert tracer.counters["linalg.rref.rows_in"] > 0
    assert tracer.counters["linalg.rref.max_bits"] >= 1
    self_s = tracer.self_times()
    assert min(self_s) >= 0
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == 2
    assert abs(sum(self_s) - sum(s[2] - s[1] for s in roots)) < 1e-6
    values = metrics.per_layer_values(summary, tracer.counters, 1, 1.0)
    assert set(values) == set(metrics.PER_LAYER)
    assert values["cli.main.self_s"] > 0


class Busy:
    """CPU work that goes on until the alarm has taken a slice during it."""

    label = "busy"

    def __init__(self, ref):
        self.ref = ref

    def run(self):
        total = 0
        while len(self.ref.slices) < 2:
            total += sum(range(10_000))
        return total

    def check(self, result):
        return []


def test_reference_slices_during_an_item_are_not_timed():
    ref = HostReference()
    previous = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    times, failures = run_pass([Busy(ref)], ref)
    outside = time.perf_counter() - start
    (seconds, ref_s), = times
    assert failures == []
    # a slice before, at least one from the alarm during the item, one after
    assert len(ref.slices) >= 3
    assert seconds + sum(ref.slices) <= outside
    assert seconds + sum(ref.slices) == pytest.approx(outside, abs=0.05)
    assert ref_s == pytest.approx(sum(ref.slices) / len(ref.slices))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_end_to_end_takes_per_item_medians():
    passes = [[(1.0, 0.25), (4.0, 1.0)],
              [(3.0, 0.25), (2.0, 1.0)],
              [(2.0, 1.0), (9.0, 1.0)]]
    assert end_to_end(passes) == {"wall_ref": 8.0, "slowest_item_ref": 4.0,
                                  "wall_s": 6.0, "slowest_item_s": 4.0}


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _rows(subspace):
    return [list(v) for v in subspace.basis]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_ladder_answers_agree_with_the_independent_oracle(index):
    from oracles import adapted_subsets, rank_when_levi_is_split_torus
    from sphlie.normalizer import normalizer_report
    from sphlie.problem import build_pair
    from sphlie.spherical import structure_report

    prob, rank, normalizer_dim = workloads.ladder_problems()[index]
    pair = build_pair(prob)
    cd = pair.cartan
    report = structure_report(pair)
    space_rows = {root: _rows(cd.root_space(root))
                  for root in cd.positive_roots}
    oracle = adapted_subsets(cd.simple_roots, cd.positive_roots, space_rows,
                             _rows(cd.n), _rows(pair.h))
    assert oracle == [()] == [report.adapted.subset_indices]
    # the oracle's rank formula needs the adapted Levi to be the split torus
    assert report.adapted.levi == cd.a
    assert rank_when_levi_is_split_torus(_rows(cd.a), _rows(pair.h)) \
        == report.rank == rank
    norm = normalizer_report(report)
    assert norm.normalizer == pair.h
    assert norm.normalizer.dim == normalizer_dim
