"""Seeded workload generators and the reference check for every job.

A job is one `ppt` command line run in-process through `ppt.cli.main`.
Each workload is a fixed cycle of jobs repeated a whole number of
times, so that every run of a workload measures the same mix of jobs;
the workload seed sets the order of the jobs and, for `fuzz`, the fuzz
seeds.  The program only ever sees the files written here.

Every job carries its reference: the expected exit code, semantic
expectations on its JSON output (model counts, `equal`, `failures`),
and, where the output is pinned by the seed commit, the key of a
recorded SHA-256 digest of its standard output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("gun", "choice", "fuzz", "compile")

# Wall seconds one cycle of each workload takes at the seed commit on a
# shared 2-core x86-64 container with Python 3.11.  A run repeats the cycle
# round(seconds / cost) times, at least once, so the job count of a run
# depends only on --seconds and never on how fast this run happens to be.
CYCLE_SECONDS = {"gun": 12.0, "choice": 16.0, "fuzz": 0.5, "compile": 10.0}

# The gun program P1 and its choice-free variant P2 (tests/conftest.py).
P1_TEXT = """\
load.
#dynamic.
shoot | load | unload.
dead :- shoot, (not unload since load).
shoot :- dead.
#final.
:- not dead.
"""

P2_TEXT = """\
load.
#dynamic.
dead :- shoot, (not unload since load).
shoot :- dead.
#final.
:- not dead.
"""

P1_GOLDEN_LENGTH_2 = [[["load"], ["dead", "shoot"]]]

GUN_LENGTHS = (2, 3, 4)
CHOICE_SIZES = ((1, 6), (2, 4), (3, 3))  # (pairs n, length) for `models`
# The verify jobs are short next to the 5 s `models` job at n=3; twelve
# of each per cycle put the median and the tail of a choice run inside
# groups of a dozen like jobs instead of between two job types.
CHOICE_VERIFY_REPEATS = 12
FUZZ_CASES = 25
COMPILE_POOL = 6
COMPILE_COMMANDS = (
    ("check",),
    ("loops", "--json"),
    # Twice, so that four of the seven jobs per program are long: the
    # median then falls inside the `complete` jobs, not between the
    # short and the long jobs.
    ("complete", "--simplify", "--json"),
    ("complete", "--simplify", "--json"),
    ("lf", "--json"),
    ("lf", "--unitary", "--simplify"),
    ("embed", "--json"),
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and its reference.

    `key` names the job independently of where its input file lives; it
    is the digest key when `digest` is true.  `expect` maps a check name
    from `CHECKS` to its expected value.
    """

    key: str
    argv: tuple[str, ...]
    exit_code: int = 0
    digest: bool = True
    expect: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

def choice_program(n: int) -> str:
    """The even-loop family: n independent `x :- not nx. nx :- not x.`
    pairs, in both the initial and the dynamic section."""
    pairs = "".join(f"x{i} :- not nx{i}.\nnx{i} :- not x{i}.\n" for i in range(n))
    return pairs + "#dynamic.\n" + pairs


def compile_program(seed: int, clusters: int = 6, size: int = 8,
                    rules: int = 220) -> str:
    """A large program for the compiler: clusters of `size` atoms.

    Positive present body atoms come from the head's own cluster or,
    rarely, from a lower one, so every positive cycle stays inside one
    cluster (below the SCC cap of 20).  Bodies have two or three
    literals, as hand-written programs do.
    """
    rng = random.Random(seed)
    groups = [[f"q{c}_{j}" for j in range(size)] for c in range(clusters)]
    every = [a for group in groups for a in group]

    def positive(c: int) -> str:
        if c > 0 and rng.random() < 0.1:
            return rng.choice(groups[rng.randrange(c)])
        return rng.choice(groups[c])

    sections: dict[str, list[str]] = {"initial": [], "dynamic": [], "final": []}
    for _ in range(rules):
        section = rng.choices(("initial", "dynamic", "final"), (30, 60, 10))[0]
        c = rng.randrange(clusters)
        width = 0 if section == "final" else rng.choices((0, 1, 2, 3),
                                                          (8, 42, 35, 15))[0]
        head = rng.sample(groups[c], width)
        body = []
        for _ in range(rng.choice((2, 2, 3))):
            roll = rng.random()
            if section == "dynamic" and roll < 0.15:
                body.append(f"prev {rng.choice(every)}")
            elif section == "dynamic" and roll < 0.25:
                body.append(f"(not {rng.choice(every)} since {positive(c)})")
            elif roll < 0.85:
                body.append(positive(c))
            else:
                body.append(f"not {rng.choice(every)}")
        arrow = " :- " if head else ":- "
        sections[section].append(" | ".join(head) + arrow + ", ".join(body) + ".")
    return ("\n".join(sections["initial"]) + "\n#dynamic.\n"
            + "\n".join(sections["dynamic"]) + "\n#final.\n"
            + "\n".join(sections["final"]) + "\n")


# ---------------------------------------------------------------------------
# Job cycles
# ---------------------------------------------------------------------------

def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / f"{name}.ppt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _gun_cycle(workdir: Path) -> list[Job]:
    files = {"p1": _write(workdir, "p1", P1_TEXT),
             "p2": _write(workdir, "p2", P2_TEXT)}
    jobs = []
    for lam in GUN_LENGTHS:
        for name, path in files.items():
            golden = name == "p1" and lam == 2
            jobs.append(Job(f"{name} models --length {lam}",
                            ("models", path, "--length", str(lam)),
                            expect={"models": P1_GOLDEN_LENGTH_2} if golden else {}))
            for mode in ("completion", "loops", "unitary"):
                # P2's shoot/dead cycle has no external support, so its
                # completion has models the program lacks.
                mismatch = name == "p2" and mode == "completion"
                jobs.append(Job(
                    f"{name} verify --length {lam} --mode {mode}",
                    ("verify", path, "--length", str(lam), "--mode", mode),
                    exit_code=2 if mismatch else 0,
                    expect={} if mode == "completion" else {"equal": True}))
    return jobs


def _choice_cycle(workdir: Path) -> list[Job]:
    jobs = []
    for n, lam in CHOICE_SIZES:
        path = _write(workdir, f"choice{n}", choice_program(n))
        jobs.append(Job(f"choice{n} models --length {lam}",
                        ("models", path, "--length", str(lam)),
                        expect={"model_count": 2 ** (n * lam)}))
        small = lam - 1
        jobs.extend([Job(f"choice{n} verify --length {small} --mode unitary",
                         ("verify", path, "--length", str(small),
                          "--mode", "unitary"),
                         expect={"equal": True,
                                 "model_count": 2 ** (n * small)})]
                    * CHOICE_VERIFY_REPEATS)
    return jobs


def _compile_cycle(workdir: Path) -> list[Job]:
    jobs = []
    for index in range(COMPILE_POOL):
        path = _write(workdir, f"compile{index}", compile_program(index))
        jobs.extend(Job(f"compile{index} {' '.join(command)}",
                        (command[0], path) + command[1:])
                    for command in COMPILE_COMMANDS)
    return jobs


def _fuzz_job(seed: int) -> Job:
    return Job(f"fuzz --seed {seed}",
               ("fuzz", "--suite", "all", "--cases", str(FUZZ_CASES),
                "--seed", str(seed)),
               digest=False, expect={"fuzz_cases": FUZZ_CASES})


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def build_jobs(workload: str, seed: int, seconds: float,
               workdir: Path) -> tuple[Job, list[list[Job]]]:
    """Write the inputs of one run; return its warm-up job and cycles.

    Each cycle is shuffled by the workload seed.  A `compile` cycle is
    the pinned pool of programs, so that every compile output has a
    recorded digest; a `fuzz` cycle is one job with a fresh fuzz seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    count = cycles_for(workload, seconds)
    if workload == "fuzz":
        warmup = _fuzz_job(rng.getrandbits(31))
        return warmup, [[_fuzz_job(rng.getrandbits(31))] for _ in range(count)]
    cycle = {"gun": _gun_cycle, "choice": _choice_cycle,
             "compile": _compile_cycle}[workload](workdir)
    cycles = []
    for _ in range(count):
        order = list(cycle)
        rng.shuffle(order)
        cycles.append(order)
    return cycle[0], cycles


def digest_jobs(workdir: Path) -> list[Job]:
    """Every job whose output digest is recorded, each once."""
    jobs = _gun_cycle(workdir) + _choice_cycle(workdir) + _compile_cycle(workdir)
    return list({job.key: job for job in jobs}.values())


# ---------------------------------------------------------------------------
# Reference check
# ---------------------------------------------------------------------------

def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _models(doc: dict) -> list:
    return doc["models"] if "models" in doc else doc["ts_models"]


CHECKS = {
    "models": lambda doc, want: _models(doc) == want,
    "model_count": lambda doc, want: len(_models(doc)) == want,
    "equal": lambda doc, want: doc["equal"] is want,
    "fuzz_cases": lambda doc, want: doc["failures"] == 0 and all(
        part["cases"] == want for name, part in doc.items()
        if name != "failures"),
}


def check_output(job: Job, code, stdout: str, digests: dict) -> str | None:
    """None when the job's exit code and output match its reference,
    otherwise the reason for the mismatch."""
    if code != job.exit_code:
        return f"exit code {code!r}, expected {job.exit_code}"
    if job.digest:
        recorded = digests.get(job.key)
        if recorded is None:
            return "no recorded digest"
        if stdout_digest(stdout) != recorded:
            return "stdout differs from the recorded digest"
    if job.expect:
        try:
            doc = json.loads(stdout)
            for name, want in job.expect.items():
                if not CHECKS[name](doc, want):
                    return f"check {name} failed"
        except (ValueError, KeyError, TypeError) as err:
            return f"unreadable output: {err!r}"
    return None
