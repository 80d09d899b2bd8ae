"""Smoke test for the benchmark: deterministic inputs, clean checks at a tiny size.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import funnel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "train": workloads.Size(funnel.FunnelShape(60, 40, 6, 3, 2, 0.2), dim=8, hyperedges=4,
                            batch_size=64, eval_users=10, check_users=2, check_pairs=5),
    "explain": workloads.Size(funnel.FunnelShape(60, 40, 6, 3, 2, 0.2), dim=8, hyperedges=4,
                              requests=6, check_users=2, check_pairs=5),
}

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_funnel_is_deterministic_per_seed():
    shape = funnel.FunnelShape(50, 40, 8, 4, 2, 0.3)
    a, b, c = (funnel.make_funnel(shape, s) for s in (7, 7, 8))
    for name in funnel.BEHAVIORS:
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in funnel.BEHAVIORS)
    assert [len(a[n]) for n in funnel.BEHAVIORS] == [50 * 8, 50 * 4, 50 * 2]


def test_funnel_nests_carts_in_views_and_most_buys_in_carts():
    shape = funnel.FunnelShape(200, 60, 10, 4, 3, 0.25)
    f = funnel.make_funnel(shape, 1)
    view, cart, buy = (set(map(tuple, f[n].tolist())) for n in funnel.BEHAVIORS)
    assert cart <= view and buy <= view
    skipped = len(buy - cart)
    assert 0 < skipped < 200


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_passes_checks(name, tmp_path):
    out, metrics = run.timed_run(name, 3, 0.0, str(tmp_path), TINY[name])
    assert out.attempted > 0 and out.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_and_repeats_counts(name, tmp_path):
    runs = []
    for k in range(2):
        trace = tmp_path / f"trace{k}.jsonl"
        out, metrics = run.traced_run(name, 3, str(tmp_path), str(trace), TINY[name])
        assert out.failed == 0
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(spans) == metrics["trace.spans"][0]
        runs.append(metrics)
    counts = {k for k, (_, unit) in runs[0].items() if unit == "count"}
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}
    assert runs[0]["reasoning.pairs"][0] > 0
    assert runs[0]["propagation.cascade_calls"][0] > 0
