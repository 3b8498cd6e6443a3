"""Tests of the benchmark itself: generator, self-time ledger, smoke runs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os

import pytest

import gen
import run
import workloads
from ledger import ROOT, Recorder, ledger, self_times

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


# -- generator -------------------------------------------------------------

@pytest.mark.parametrize("key_type", ["int", "string"])
def test_generator_is_deterministic(key_type):
    first = gen.relation_pair(50, 20, 2, key_type, seed=7)
    again = gen.relation_pair(50, 20, 2, key_type, seed=7)
    other = gen.relation_pair(50, 20, 2, key_type, seed=8)
    assert first == again
    assert first.relation_1.rows != other.relation_1.rows


@pytest.mark.parametrize("key_type", ["int", "string"])
def test_generator_draws_disjoint_domains_of_1000(key_type):
    pair = gen.relation_pair(1000, 500, 2, key_type, seed=3)
    keys_1 = {row[0] for row in pair.relation_1}
    keys_2 = {row[0] for row in pair.relation_2}
    assert len(keys_1) == len(keys_2) == 1000
    assert keys_1 & keys_2 == set(pair.shared)
    assert len(pair.shared) == 500
    assert len(pair.relation_1) == len(pair.relation_2) == 2000
    assert pair.write_row not in pair.relation_1
    assert pair.write_row[0] in pair.shared


def test_interleaving_spreads_every_class_evenly():
    labels = gen._interleaved([2, 2, 4])
    assert sorted(labels) == [0, 0, 1, 1, 2, 2, 2, 2]
    assert labels[:4].count(2) == labels[4:].count(2) == 2


# -- self-time arithmetic ---------------------------------------------------

def _span(layer, parent, start, end, amount=0):
    return [layer, parent, start, end, amount]


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(ROOT, -1, 0.0, 10.0),
        _span("core.delivery", 0, 1.0, 4.0),
        _span("crypto.bigint", 1, 2.0, 3.0),
        _span("crypto.dem", 0, 5.0, 9.0, amount=64),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", -1, 0.0, 10.0), _span("b", 0, 1.0, 5.0),
             _span("c", 0, 3.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_ledger_adds_up_to_the_root_and_keeps_other_threads_apart():
    client = type("State", (), {})()
    client.client, client.spans = True, [
        _span(ROOT, -1, 0.0, 10.0),
        _span("core.delivery", 0, 1.0, 4.0),
        _span("crypto.bigint", 1, 2.0, 3.0),
        _span("crypto.dem", 0, 5.0, 9.0, amount=64),
        _span(ROOT, -1, 20.0, 22.0),
        _span("crypto.dem", 4, 20.5, 21.0, amount=16),
    ]
    loop = type("State", (), {})()
    loop.client, loop.spans = False, [_span("transport.codec", -1, 6.0, 8.0)]
    book = ledger([client, loop])
    assert book["root_s"] == 12.0
    assert book["residual_s"] == 0.0
    assert book["layers"]["crypto.dem"] == {"calls": 2, "amount": 80, "self_s": 4.5}
    assert book["layers"][ROOT]["self_s"] == 4.5
    assert book["offthread_s"] == 2.0
    assert "transport.codec" not in book["layers"]


def test_recorder_records_only_inside_roots_and_restores_patches():
    class Target:
        @staticmethod
        def work(value):
            return value * 2

    recorder = Recorder()
    recorder.patch(Target, "work", "relational")
    assert Target.work(1) == 2  # outside a root: not recorded
    with recorder.root():
        assert Target.work(2) == 4
    recorder.restore()
    assert not hasattr(Target.work, "__wrapped__")
    spans = [span for state in recorder.threads for span in state.spans]
    assert [span[0] for span in spans] == [ROOT, "relational"]
    assert spans[1][1] == 0


# -- smoke runs ----------------------------------------------------------------

TINY = {"comm-bus": 4, "das-tcp": 8, "pm-bus": 2, "series-sqlite": 4}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, capsys):
    assert set(TINY) == set(workloads.WORKLOADS)
    workload = dataclasses.replace(workloads.WORKLOADS[name], domain=TINY[name],
                                   overlap=TINY[name] // 2)
    metrics, total = run.measure(workload, seed=1, seconds=0.2, trace=trace)
    assert total.failed == 0 and total.attempted >= workloads.WRITE_EVERY
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    if trace:
        assert metrics["ledger_residual_s"][0] == pytest.approx(0.0, abs=1e-9)
        assert metrics["traced_query_s"][0] > 0
    else:
        assert all(value > 0 for value, _ in metrics.values())


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
