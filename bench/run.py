"""The ppt benchmark: seeded CLI workloads run in-process, with checks.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gun --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics of an untraced run.
`--trace 1` runs each job of the first half of the job list untraced
and then traced, prints the per-layer metrics and writes the spans to
`bench/out/`.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are
a readable table.  See bench/README.md for the metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 6

from pptbench.harness import (  # noqa: E402
    END_TO_END_UNITS, PER_LAYER_UNITS, end_to_end, layer_metrics, run_job,
    self_time_gap)
from pptbench.speed import SpeedMeter, slowdown, time_reference  # noqa: E402
from pptbench.tracing import Tracer, installed  # noqa: E402
from pptbench.workloads import WORKLOADS, build_jobs  # noqa: E402

def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setups(args) -> list[float]:
    """Scaled set-up times of fresh interpreters preparing the same run."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def _table(metrics: dict, units: dict, notes: dict) -> None:
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32} {metrics[name]:>16.6g} {unit}{note}")


def _report_failures(results) -> None:
    for r in results:
        if r.failure is not None:
            print(f"failed: {r.job.key}: {r.failure}", file=sys.stderr)


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "ppt" / "__init__.py").is_file():
        print(f"error: no ppt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("PPT_BUDGET", None)
    import ppt.cli

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        warmup, cycles = build_jobs(args.workload, args.seed, args.seconds,
                                    workdir)
        # Set-up takes too little time for samples inside it; the two
        # samples right after it stand for the host speed during it.
        setup = ((time.perf_counter() - _STARTED)
                 / slowdown(time_reference(), time_reference()))
        if args.setup_only:
            print(setup)
            return 0
        digests = json.loads((BENCH / "digests.json").read_text())
        setups = [setup] + _probe_setups(args)

        main_fn = ppt.cli.main
        # A traced run samples host speed only between jobs, in both of
        # its passes, so that no sample lands inside a span.
        meter = SpeedMeter(sample=not args.trace)
        results = [run_job(main_fn, warmup, digests, meter)]
        if args.trace:
            # Each job runs untraced and then traced, so that both runs
            # of a job see the same host and heap state.
            tracer = Tracer()
            plain, traced = [], []
            for cycle in cycles[:math.ceil(len(cycles) / 2)]:
                for job in cycle:
                    plain.append(run_job(main_fn, job, digests, meter))
                    with installed(tracer):
                        traced.append(run_job(main_fn, job, digests, meter, tracer))
            results += plain + traced
            (BENCH / "out").mkdir(exist_ok=True)
            tracer.write(BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
            gap = self_time_gap(tracer.spans)
            metrics = layer_metrics(tracer.spans, traced, plain)
            units = PER_LAYER_UNITS
            notes = {"tht.candidates": "computed as 2^(|alphabet|*length)",
                     "ltlf.candidates": "computed as 2^(|alphabet|*length)"}
            consistent = gap < 1e-6
            print(f"largest gap between a job's summed self times and its "
                  f"wall time: {gap:.3g} s")
        else:
            plain = [run_job(main_fn, job, digests, meter)
                     for cycle in cycles for job in cycle]
            results += plain
            metrics = end_to_end(plain)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = END_TO_END_UNITS
            notes = {
                "job_tail_s": f"p{metrics['job_tail_percentile']:.1f} of "
                              f"{len(plain)} jobs",
                "setup_s": f"median of {len(setups)} set-ups",
            }
            print(f"host slowdown against the seed machine, median over "
                  f"jobs: {statistics.median(r.seconds / r.scaled_seconds for r in plain):.3f}")
            consistent = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failure is not None for r in results)
    _report_failures(results)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(cycles)} cycle(s), trace {args.trace}")
    _table(metrics, units, notes)
    print(f"{'failed_ratio':32} {failed / len(results):>16.6g} "
          f"({failed} of {len(results)} jobs)")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
