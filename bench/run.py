"""Benchmark of the `verify` CLI, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs `python -m salemsurf.cli` against the checkout's
own src/, one child process at a time (a closed loop from one client),
and checks the child's report with bench/checker.py, which shares no
code with the program. Operations repeat in whole rounds until S
seconds have passed. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, each the median
over the run's operations: wall_s, cpu_s and peak_rss_mb of the child
(from os.wait4), and setup_s, the time to import salemsurf.cli in a
fresh interpreter (median over one probe per child run).

With --trace 1 each round runs the operation once plainly and once
under bench/traced.py; the metrics are the per-layer figures of the
traced runs (medians over operations) and trace.overhead_s, the traced
minus the plain wall time. Spans and results are kept under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checker
import mutants
import traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

SALEM_FINE_EXPONENT = 30   # salem_fine isolates lambda to about 1e-30
MUTANTS_PER_ROUND = 12
MIN_SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150


class Child:
    __slots__ = ("status", "stdout", "stderr", "wall_s", "cpu_s", "rss_mb")


def run_child(argv: list, tmp: Path) -> Child:
    """Run one child to its end; time it and take its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = Child()
    with open(tmp / "stdout", "w+b") as out, \
            open(tmp / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        child.wall_s = time.perf_counter() - t0
        child.status = proc.returncode = os.waitstatus_to_exitcode(status)
        child.cpu_s = usage.ru_utime + usage.ru_stime
        child.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        out.seek(0)
        err.seek(0)
        child.stdout = out.read().decode("utf-8", "replace")
        child.stderr = err.read().decode("utf-8", "replace")
    return child


_PROBE = ("import time; t = time.perf_counter(); import salemsurf.cli as c; "
          "t = time.perf_counter() - t; print(repr(t), c.__file__)")


def import_probe(tmp: Path) -> float:
    """Seconds to import salemsurf.cli, measured inside a fresh child."""
    child = run_child([sys.executable, "-c", _PROBE], tmp)
    seconds, _, path = child.stdout.strip().partition(" ")
    if child.status != 0 or not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"import probe failed or imported salemsurf from "
                           f"outside {SRC}: {child.stdout}{child.stderr}")
    return float(seconds)


# ---------------------------------------------------------------------------
# workloads: each is a list of jobs per round, a job being the CLI
# arguments, the exit status the output must have, and its checker.


def verify_all_jobs(seed: int, tmp: Path) -> list:
    """The product run. It has no input besides the bundled model, so the
    seed changes nothing here."""
    s = checker.parse_poly_text(
        (SRC / "salemsurf" / "data" / "surface.poly").read_text())["s"]
    singular = checker.singular_points(s)
    precision = checker.parse_precision("1e-9")
    return [(["all", "--format", "json"], 0,
             lambda r: checker.check_all(r, precision, singular))]


def salem_fine_jobs(seed: int, tmp: Path) -> list:
    """Lambda at a width far below the default; the seed picks the
    mantissa in [1, 2), which moves the bisection depth by under a bit."""
    digits = random.Random(seed).randrange(1000)
    text = f"1.{digits:03d}e-{SALEM_FINE_EXPONENT}"
    precision = checker.parse_precision(text)
    return [(["salem", "--format", "json", "--precision", text], 0,
             lambda r: checker.check_salem(r, precision))]


def mutant_branch_jobs(seed: int, tmp: Path) -> list:
    """A seeded set of single-coefficient mutants of s, each rejected."""
    made = mutants.make_mutants(SRC / "salemsurf" / "data", tmp / "mutants",
                                seed, MUTANTS_PER_ROUND)
    return [(["surface", "--format", "json", "--data", str(m.directory)], 1,
             lambda r, m=m: checker.check_mutant(r, m.singular))
            for m in made]


WORKLOADS = {"verify_all": verify_all_jobs,
             "salem_fine": salem_fine_jobs,
             "mutant_branch": mutant_branch_jobs}


class Tally:
    """Counts and problems over the run's child runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def judge(self, job, child: Child, label: str) -> None:
        args, want_status, check = job
        self.attempted += 1
        report, problems = checker.parse_report(child.stdout)
        if "Traceback" in child.stderr:
            problems.append("traceback on stderr")
        if report is None or child.status not in (0, 1) or problems:
            self.failed += 1
            self._note(label, args, problems
                       + [f"exit {child.status}", child.stderr[-500:]])
            return
        problems = check(report)
        if child.status != want_status:
            problems.append(f"exit {child.status}, expected {want_status}")
        if problems:
            self.problems.append(problems)
            self._note(label, args, problems)

    @staticmethod
    def _note(label, args, problems):
        print(f"{label} {' '.join(args)}: {problems}", file=sys.stderr)


def run_round(jobs, tmp, tally, probes=None, traces=None) -> dict:
    """One operation: every job once, one child at a time. With `probes`
    an import probe follows each child; with `traces` each child runs
    traced and its spans are appended."""
    wall = cpu = rss = 0.0
    for job in jobs:
        if traces is None:
            argv = [sys.executable, "-m", "salemsurf.cli"] + job[0]
        else:
            (tmp / "spans.json").unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "traced.py"),
                    str(tmp / "spans.json")] + job[0]
        child = run_child(argv, tmp)
        tally.judge(job, child, "plain" if traces is None else "traced")
        wall += child.wall_s
        cpu += child.cpu_s
        rss = max(rss, child.rss_mb)
        if traces is not None:  # a child that died early wrote no spans
            spans = tmp / "spans.json"
            traces.append(json.loads(spans.read_text())
                          if spans.exists() else [])
        if probes is not None:
            probes.append(import_probe(tmp))
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}


def median_of(rows: list, key: str) -> float:
    return statistics.median(row[key] for row in rows)


def bench(workload: str, seed: int, seconds: float, trace: bool,
          tmp: Path) -> dict:
    jobs = WORKLOADS[workload](seed, tmp)
    tally = Tally()
    probes: list = []
    import_probe(tmp)  # compiles the bytecode cache; not counted
    plain, layered, all_traces = [], [], []
    start = time.perf_counter()
    while True:
        if trace:
            plain.append(run_round(jobs, tmp, tally))
            traces: list = []
            op = run_round(jobs, tmp, tally, traces=traces)
            op.update(traced.summarize(traces))
            layered.append(op)
            all_traces.append(traces)
        else:
            plain.append(run_round(jobs, tmp, tally, probes=probes))
        if time.perf_counter() - start >= seconds:
            break

    if trace:
        metrics = {key: {"value": median_of(layered, key), "unit": unit}
                   for key, unit in traced.metric_units().items()
                   if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": median_of(layered, "wall_s") - median_of(plain, "wall_s"),
            "unit": "s"}
        (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(
            {"functions": traced.FUNCTIONS, "operations": all_traces}))
    else:
        while len(probes) < MIN_SETUP_PROBES:
            probes.append(import_probe(tmp))
        metrics = {key: {"value": median_of(plain, key), "unit": unit}
                   for key, unit in (("wall_s", "s"), ("cpu_s", "s"),
                                     ("peak_rss_mb", "MB"))}
        metrics["setup_s"] = {"value": statistics.median(probes),
                              "unit": "s"}
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "salemsurf" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    line = json.dumps(result)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
