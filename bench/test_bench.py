"""Tests of the benchmark itself, at reduced size.

Run with `python3 -m pytest bench` from the repository root.
"""

import copy
import json
import random
from pathlib import Path

import pytest

import run as bench
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Left out of the reduced rounds: the slowest task, and the one that
# fails until its report renders.
HEAVY = {"verify extended32 depth 5000"}


@pytest.fixture(scope="module")
def env():
    return workloads.Env(workloads.load_expected())


@pytest.fixture
def small(monkeypatch):
    """Shrink every round: fewer samples and none of the slowest tasks."""
    monkeypatch.setattr(workloads, "ORACLE_SAMPLE", 5)
    monkeypatch.setattr(workloads, "ORACLE_EXHAUSTIVE", workloads.ORACLE_EXHAUSTIVE[:20])
    monkeypatch.setattr(workloads, "TRIPLES_PER_LENGTH", 1)
    for name, make in list(workloads.ROUNDS.items()):
        monkeypatch.setitem(
            workloads.ROUNDS,
            name,
            lambda env, rng, make=make: [t for t in make(env, rng) if t.key not in HEAVY],
        )


def test_spec_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(WORKLOADS) == set(workloads.ROUNDS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    readme = (ROOT / "bench" / "README.md").read_text()
    for m in SPEC["per_layer"]:
        assert f"`{m['name']}`" in readme, f"{m['name']} missing from the layer-metric map"


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(small, workload, trace):
    info, result = bench.run(workload, seed=3, seconds=0, trace=trace, reps=1)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert info["seed"] == 3 and info["fingerprint"]["python"]
    json.dumps(result)


def test_wrong_expected_verdict_raises_failed_ratio(small):
    expected = workloads.load_expected()
    info, result = bench.run("verify-builtins", 1, 0, False, reps=1, expected=expected)
    assert info["failed_ratio"] == 0 and result["correct"]

    wrong = copy.deepcopy(expected)
    wrong["verify-builtins"]["search cplus16 depth 3"]["completions"] = 1
    info, result = bench.run("verify-builtins", 1, 0, False, reps=1, expected=wrong)
    assert info["failed_ratio"] > 0 and not result["correct"]
    assert result["failed"] == info["mismatched"] >= 1


def test_a_task_that_raises_is_failed_but_not_a_wrong_verdict():
    def boom(tr):
        raise ValueError("render failed")

    outcomes = bench.Outcomes()
    bench.run_task(workloads.Task("t", (), boom), {"t": {}}, tracing.NullTracer(), outcomes)
    assert (outcomes.attempted, outcomes.raised, outcomes.mismatched) == (1, 1, 0)


def test_repeats_of_an_operation_count_once():
    outcomes = bench.Outcomes()
    for problems in ([], ["wrong"], []):
        outcomes.record(0, "t", problems)
    outcomes.record(1, "t", [], raised=True)
    outcomes.record(1, "t", [])
    outcomes.record(2, "t", [])
    assert (outcomes.attempted, outcomes.mismatched, outcomes.raised, outcomes.verdicts) == (3, 1, 1, 6)


def test_bounds_and_equalities_in_expected_answers():
    assert workloads.mismatches({"n": 3, "ok": True}, {"max_n": 4, "min_n": 3, "ok": True}) == []
    assert len(workloads.mismatches({"n": 5}, {"max_n": 4, "ok": True})) == 2


class NoSideRuns:
    def warm_up(self):
        pass

    def once(self):
        raise AssertionError("no side runs were asked for")


def test_spans_nest_and_self_times_are_not_negative(small, env):
    for workload in WORKLOADS:
        _, rounds, tracer = bench.measure_rounds(
            workload, env, random.Random(0), 0, True, bench.Outcomes(), NoSideRuns(), 0
        )
        assert rounds[True] == 1
        by_id = {s.id: s for s in tracer.spans}
        assert any(s.parent is not None for s in tracer.spans)
        for s in tracer.spans:
            if s.parent is None:
                assert s.task == s.id and s.name.startswith("task ")
            else:
                parent = by_id[s.parent]
                assert s.task == parent.task
                assert parent.start <= s.start <= s.end <= parent.end
        assert min(tracing.self_times(tracer.spans).values()) >= 0


def test_self_time_subtracts_covered_children():
    spans = [
        tracing.Span(0, 0, None, "task", 0.0, 10.0),
        tracing.Span(0, 1, 0, "a", 1.0, 4.0),
        tracing.Span(0, 2, 0, "b", 5.0, 6.0),
        tracing.Span(0, 3, 1, "c", 2.0, 3.0),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def _inputs(env, workload, seed):
    rng = random.Random(seed)
    tasks = workloads.ROUNDS[workload](env, rng)
    return [t.inputs for t in tasks], workloads.cli_command(workload, env, rng).argv


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_sampled_inputs_only(env, workload):
    a, cli_a = _inputs(env, workload, 1)
    b, cli_b = _inputs(env, workload, 2)
    assert (a, cli_a) == _inputs(env, workload, 1)
    if workload == "verify-builtins":
        assert (a, cli_a) == (b, cli_b)
    elif workload == "oracle-trees":
        n = len(workloads.ORACLE_EXHAUSTIVE)
        assert a[:n] == b[:n] == list(workloads.ORACLE_EXHAUSTIVE)
        assert a[n:-1] != b[n:-1] and a[-1] == b[-1] == ()
        assert cli_a == cli_b
    else:
        triples = slice(0, -len(env.machines))
        assert a[triples] != b[triples] and a[triples.stop:] == b[triples.stop:]
        assert cli_a != cli_b
