"""Tests of the benchmark itself: generators, span arithmetic, checks."""

import json
from pathlib import Path

import ppt.cli
import ppt.transform
import ppt.verify
from ppt.syntax import And, AtomRef, Not

from pptbench.harness import (
    END_TO_END_UNITS, PER_LAYER_UNITS, run_job, self_time_gap, tail)
from pptbench.speed import SpeedMeter
from pptbench.tracing import (
    NAMESPACES, Span, Tracer, installed, self_times, tree_size)
from pptbench.workloads import WORKLOADS, build_jobs, check_output

BENCH = Path(__file__).parent
DIGESTS = json.loads((BENCH / "digests.json").read_text())


def _run_inputs(base, workload, seed):
    workdir = base / workload
    workdir.mkdir(parents=True)
    warmup, cycles = build_jobs(workload, seed, 20, workdir)
    jobs = [(job.key, tuple(a.replace(str(workdir), "<dir>") for a in job.argv))
            for job in [warmup] + [job for cycle in cycles for job in cycle]]
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return jobs, files


def test_generators_are_deterministic_per_seed(tmp_path):
    for workload in WORKLOADS:
        first = _run_inputs(tmp_path / "a", workload, 7)
        assert _run_inputs(tmp_path / "b", workload, 7) == first
        other_jobs, _ = _run_inputs(tmp_path / "c", workload, 8)
        assert other_jobs != first[0]


def test_self_times_on_synthetic_spans():
    spans = [Span("job 0", "cli", None, 0, 0.0, 10.0),
             Span("a", "transform", 0, 0, 1.0, 4.0),
             Span("b", "syntax", 1, 0, 2.0, 3.0),
             Span("c", "tht", 0, 0, 5.0, 9.0),
             Span("job 1", "cli", None, 1, 10.0, 12.0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert self_time_gap(spans) == 0.0
    spans[2].parent = None  # an orphan breaks the sum for job 0
    assert self_time_gap(spans) > 0.5


def test_tree_size_counts_shared_subtrees_at_every_occurrence():
    a = AtomRef("a")
    assert tree_size([And(a, Not(a)), a]) == 5


def test_tail_keeps_ten_samples_beyond():
    value, percentile = tail([float(x) for x in range(34, 0, -1)])
    assert value == 24.0 and percentile == 100 * 24 / 34


def test_reference_check_rejects_mutated_output_and_exit_code(tmp_path):
    warmup, _ = build_jobs("gun", 1, 1, tmp_path)
    assert warmup.key == "p1 models --length 2"
    assert run_job(ppt.cli.main, warmup, DIGESTS, SpeedMeter()).failure is None
    golden = json.dumps({"length": 2, "models": [[["load"], ["dead", "shoot"]]]},
                        indent=2)
    assert check_output(warmup, 0, golden + "\n", DIGESTS) is None
    assert check_output(warmup, 0, golden.replace("dead", "deaf") + "\n",
                        DIGESTS) is not None
    assert check_output(warmup, 0, golden, DIGESTS) is not None
    assert check_output(warmup, 2, golden + "\n", DIGESTS) is not None
    assert check_output(warmup, 0, golden + "\n", {}) is not None


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    modules = [ppt.cli, ppt.verify, ppt.transform]
    assert [m.__name__ for m in modules] == list(NAMESPACES)
    before = [dict(vars(m)) for m in modules]
    warmup, _ = build_jobs("gun", 1, 1, tmp_path)
    tracer = Tracer()
    with installed(tracer):
        assert ppt.cli.parse_program is not before[0]["parse_program"]
        result = run_job(ppt.cli.main, warmup, DIGESTS,
                         SpeedMeter(sample=False), tracer)
    assert [dict(vars(m)) for m in modules] == before
    assert result.failure is None
    layers = {span.layer for span in tracer.spans}
    assert {"cli", "parser", "tht"} <= layers
    assert self_time_gap(tracer.spans) < 1e-9


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for kind, units in (("end_to_end", END_TO_END_UNITS),
                        ("per_layer", PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[kind]} == units
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
