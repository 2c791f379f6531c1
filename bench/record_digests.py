"""Record the stdout digests that the benchmark checks outputs against.

    python3 bench/record_digests.py

Runs every job with a pinned input (gun, choice and the compile pool)
once and writes `bench/digests.json`.  The digests pin the CLI output
of the commit that recorded them; the ROADMAP requires later commits to
print byte-identical JSON, so re-record only when an output change is
intended and reviewed.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ppt.cli import main  # noqa: E402
from pptbench.workloads import digest_jobs, stdout_digest  # noqa: E402


def record() -> dict:
    workdir = BENCH / "_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        digests = {}
        for job in digest_jobs(workdir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(list(job.argv))
            if code != job.exit_code:
                raise SystemExit(f"{job.key}: exit code {code}")
            digests[job.key] = stdout_digest(out.getvalue())
        return digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    path = BENCH / "digests.json"
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
