"""Closed-loop job runner and the metrics computed from its results.

One client issues one job at a time and checks its output before it
issues the next; a job is timed from the `ppt.cli.main(argv)` call to
its return, with standard output and error captured in memory.

Times are scaled to the seed machine's quiet speed (see `speed`).
"""

from __future__ import annotations

import contextlib
import io
import statistics
from collections import defaultdict
from dataclasses import dataclass

from .speed import SpeedMeter
from .tracing import Tracer, self_times
from .workloads import Job, check_output


@dataclass
class Result:
    job: Job
    seconds: float  # wall time, speed sampling excluded
    scaled_seconds: float  # at the seed machine's quiet speed
    code: object
    out_bytes: int
    failure: str | None


def run_job(main, job: Job, digests: dict, meter: SpeedMeter,
            tracer: Tracer | None = None) -> Result:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), meter.job() as timing:
        try:
            if tracer is None:
                code = main(list(job.argv))
            else:
                tracer.job += 1
                with tracer.span(job.key, "cli"):
                    code = main(list(job.argv))
        except SystemExit as err:
            code = err.code
        except Exception as err:  # a crash is a failed job, not a failed run
            code = type(err).__name__
    text = out.getvalue()
    return Result(job, timing.seconds, timing.scaled_seconds, code,
                  len(text.encode("utf-8")), check_output(job, code, text, digests))


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the largest sample when there are ten or
    fewer."""
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(results: list[Result]) -> dict:
    """Job time metrics, in seconds at the seed machine's quiet speed."""
    times = [r.scaled_seconds for r in results]
    tail_value, percentile = tail(times)
    return {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "job_tail_percentile": percentile,
        "jobs_per_s": len(times) / sum(times),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "tht.busy_s": "s/job",
    "tht.calls": "count/job",
    "tht.candidates": "count/job",
    "tht.models": "count/job",
    "tht.models_per_candidate": "ratio",
    "tht.sat_calls": "count/job",
    "tht.sat_busy_s": "s/job",
    "ltlf.busy_s": "s/job",
    "ltlf.calls": "count/job",
    "ltlf.candidates": "count/job",
    "ltlf.models": "count/job",
    "ltlf.input_nodes": "count/job",
    "transform.busy_s": "s/job",
    "transform.external_support_s": "s/job",
    "transform.formulas": "count/job",
    "transform.nodes": "count/job",
    "depgraph.busy_s": "s/job",
    "depgraph.loops": "count/job",
    "parser.busy_s": "s/job",
    "parser.calls": "count/job",
    "parser.bytes_per_s": "B/s",
    "syntax.busy_s": "s/job",
    "cli.self_s": "s/job",
    "cli.out_bytes": "B/job",
    "verify.self_s": "s/job",
    "verify.cases": "count/job",
    "trace.overhead_ratio": "ratio",
}

_SAT = ("ht_sat", "three_valued")


def self_time_gap(spans) -> float:
    """Largest distance, over jobs, between the sum of a job's self
    times and the duration of its root span (the `cli` span around
    `main`, named after the job); nonzero when a span of the job is
    missing from the tree under that root."""
    selfs = self_times(spans)
    summed: dict[int, float] = defaultdict(float)
    wall: dict[int, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        summed[span.job] += own
        if span.parent is None and span.layer == "cli":
            wall[span.job] += span.end - span.start
    return max((abs(summed[job] - wall[job]) for job in summed), default=0.0)


def layer_metrics(spans, traced: list[Result], untraced: list[Result]) -> dict:
    """Per-job means of layer self times and counts over a traced pass."""
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    sat_busy = external = 0.0
    for span, own in zip(spans, selfs):
        busy[span.layer] += own
        calls[span.name] += 1
        if span.name in _SAT:
            sat_busy += own
        if span.name == "external_support":
            external += span.end - span.start
        for key, value in (span.counts or {}).items():
            counts[span.layer, key] += value
    jobs = len(traced)
    per_job = {
        "tht.busy_s": busy["tht"],
        "tht.calls": calls["enumerate_ts_models"],
        "tht.candidates": counts["tht", "candidates"],
        "tht.models": counts["tht", "models"],
        "tht.sat_calls": sum(calls[name] for name in _SAT),
        "tht.sat_busy_s": sat_busy,
        "ltlf.busy_s": busy["ltlf"],
        "ltlf.calls": calls["enumerate_ltlf_models"],
        "ltlf.candidates": counts["ltlf", "candidates"],
        "ltlf.models": counts["ltlf", "models"],
        "ltlf.input_nodes": counts["ltlf", "input_nodes"],
        "transform.busy_s": busy["transform"],
        "transform.external_support_s": external,
        "transform.formulas": counts["transform", "formulas"],
        "transform.nodes": counts["transform", "nodes"],
        "depgraph.busy_s": busy["depgraph"],
        "depgraph.loops": counts["depgraph", "loops"],
        "parser.busy_s": busy["parser"],
        "parser.calls": calls["parse_program"],
        "syntax.busy_s": busy["syntax"],
        "cli.self_s": busy["cli"],
        "cli.out_bytes": sum(r.out_bytes for r in traced),
        "verify.self_s": busy["verify"],
        "verify.cases": counts["verify", "cases"],
    }
    metrics = {name: value / jobs for name, value in per_job.items()}
    candidates = counts["tht", "candidates"]
    metrics["tht.models_per_candidate"] = (
        counts["tht", "models"] / candidates if candidates else 0.0)
    metrics["parser.bytes_per_s"] = (
        counts["parser", "bytes"] / busy["parser"] if busy["parser"] else 0.0)
    metrics["trace.overhead_ratio"] = (
        end_to_end(traced)["job_p50_s"] / end_to_end(untraced)["job_p50_s"])
    return {name: metrics[name] for name in PER_LAYER_UNITS}
