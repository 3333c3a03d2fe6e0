#!/usr/bin/env python3
"""fcone benchmark runner.

Run from the root of an fcone checkout; the library is imported from ./src.

    python3 perfbench/run.py --workload rays --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

One run repeats the workload's fixed job list in a closed loop with one
client until ``--seconds`` have passed (at least two passes), checks every
output outside the timed region, and prints human-readable metric lines.
The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 1`` instead times
untraced passes, then traced passes, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rays", "annotate", "classes", "certify")
MIN_PASSES = 2
SETUP_PROBES = 7
# no pass starts that could end after this, so a run exits within 180 s
PASS_LIMIT_S = 150.0
# the speed gauge's time on an undisturbed reference machine (see README.md)
GAUGE_STEPS = 1000
GAUGE_REF_S = 0.004


def gauge() -> float:
    """Seconds for a fixed loop of small exact fractions, like fcone's inner loops."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(GAUGE_STEPS):
        acc += Fraction(i % 7, 5) * Fraction(3, i % 11 + 1)
    return time.perf_counter() - start


def reference_seconds(raw_s: float, gauge_before: float, gauge_after: float) -> float:
    """A measured time rescaled to the reference machine's speed.

    On shared virtual machines, other tenants stretch every computation
    alike, by up to about 2x, for seconds to minutes.  The gauge is timed just
    before and just after the measured call; their mean, against the
    gauge's reference time, is how slow the host ran meanwhile.  A slower
    fcone does not move the gauge.
    """
    return raw_s * 2 * GAUGE_REF_S / (gauge_before + gauge_after)


def load_workloads(root: Path):
    """Import the workloads module against the fcone sources under root/src."""
    src = (root / "src").resolve()
    if not (src / "fcone" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fcone sources in {root / 'src'}; "
                 "run from the root of an fcone checkout")
    sys.path.insert(0, str(src))
    import workloads

    import fcone

    if Path(fcone.__file__).resolve().parent != src / "fcone":
        sys.exit(f"perfbench: imported fcone from {fcone.__file__}, not from {src}")
    return workloads


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from a fresh process start until the first job could run.

    Each probe is this script in --setup-probe mode: it imports fcone,
    builds the workload's inputs and reports ready.  The first probe is
    discarded; it also compiles the bytecode caches.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES + 1):
        before = gauge()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            sys.exit(f"perfbench: setup probe exited {rc} without reporting ready")
        times.append(reference_seconds(elapsed, before, gauge()))
    return statistics.median(times[1:])


class Passes:
    """Runs passes over one job list and checks every output.

    The first pass's outputs are checked in full; every later pass, traced
    or not, must render to the same text byte for byte.
    """

    def __init__(self, jobs, started: float):
        self.jobs = jobs
        self.started = started
        self.expected: list = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds: float, min_passes: int, tracer=None) -> tuple[list, list]:
        """Repeat the job list; return every job's times, one list per job,
        in reference seconds and in wall-clock seconds.

        Each output is checked and dropped right after its job, outside
        the timed region.
        """
        times: list[list[float]] = [[] for _ in self.jobs]
        raw: list[list[float]] = [[] for _ in self.jobs]
        begin = time.perf_counter()
        while len(times[0]) < min_passes or time.perf_counter() - begin < seconds:
            last_pass = sum(t[-1] for t in raw) if raw[0] else 0.0
            if time.perf_counter() - self.started + last_pass > PASS_LIMIT_S:
                break
            before = gauge()
            for i, job in enumerate(self.jobs):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        out = job.run()
                    else:
                        out = tracer.run_job(self.attempted, job.label, job.run)
                except Exception as exc:  # a failed job is counted, the run goes on
                    out = exc
                elapsed = time.perf_counter() - start
                after = gauge()
                raw[i].append(elapsed)
                times[i].append(reference_seconds(elapsed, before, after))
                # checks after the first pass take milliseconds, so this
                # gauge reading still holds for the next job
                before = after
                self.verify(i, out)
                # freed before the next job, so peak memory is one job's, not
                # this output's plus the next job's in seed-dependent order
                del out
        return times, raw

    def verify(self, i: int, out) -> None:
        job = self.jobs[i]
        self.attempted += 1
        problems = self._problems(i, job, out)
        if problems:
            self.failed += 1
            self.problems += [f"{job.label}: {p}" for p in problems]

    def _problems(self, i: int, job, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        try:
            text = job.render(out)
            if self.expected[i] is not None:
                return [] if text == self.expected[i] else ["output differs from the first pass"]
            problems = job.check(out)
        except Exception as exc:  # a checker tripping over bad output is a failed job
            return [f"check raised {type(exc).__name__}: {exc}"]
        if not problems:
            self.expected[i] = text
        return problems


def wall(times: list[list[float]]) -> float:
    """Time for the whole job list: the sum of each job's median time."""
    return sum(statistics.median(t) for t in times)


def measure(args, workloads, started: float) -> tuple[dict, Passes, list[str]]:
    setup_s = setup_seconds(args.workload, args.seed)
    passes = Passes(workloads.build(args.workload, args.seed, Path.cwd()), started)
    times, raw = passes.run(args.seconds, MIN_PASSES)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    job_ms = [statistics.median(t) * 1000 for t in times]
    # inclusive: short job lists interpolate between jobs, never past the slowest
    p90 = statistics.quantiles(job_ms, n=10, method="inclusive")[8]
    metrics = {
        "wall_s": (wall(times), "s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    notes = [
        f"times in reference seconds; wall-clock wall_s {wall(raw):.4f} s, "
        f"host speed {wall(times) / wall(raw):.3f} of the reference",
        f"wall_s: sum over {len(times)} jobs of each job's median of {len(times[0])} passes",
        f"job_p50_ms, job_p90_ms: over the {len(job_ms)} jobs' median latencies, "
        f"{sum(t > p90 for t in job_ms)} above p90",
        f"setup_s: median of {SETUP_PROBES} fresh-process probes",
    ]
    return metrics, passes, notes


def measure_traced(args, workloads, started: float) -> tuple[dict, Passes, list[str]]:
    from tracer import Tracer

    passes = Passes(workloads.build(args.workload, args.seed, Path.cwd()), started)
    untraced, _ = passes.run(args.seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_raw = passes.run(args.seconds / 2, 1, tracer)
    finally:
        left = tracer.uninstall()
    if left:
        passes.failed += 1
        passes.problems.append("wrappers left installed: " + ", ".join(left))
    base = wall(untraced)
    speed = sum(map(sum, traced)) / sum(map(sum, traced_raw))
    path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "passes": len(traced[0])})
    notes = [
        f"{len(untraced[0])} untraced and {len(traced[0])} traced passes; "
        f"traced outputs compared byte for byte with the untraced ones",
        f"per-layer values are per pass, times in reference seconds "
        f"(host speed {speed:.3f}); trace written to {path}",
    ]
    return tracer.metrics(len(traced[0]), speed, wall(traced) - base, base), passes, notes


def run_one(args) -> int:
    started = time.perf_counter()
    workloads = load_workloads(Path.cwd())
    if args.setup_probe:
        workloads.build(args.workload, args.seed, Path.cwd())
        print("ready", flush=True)
        return 0
    if args.trace:
        metrics, passes, notes = measure_traced(args, workloads, started)
    else:
        metrics, passes, notes = measure(args, workloads, started)
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"failed_frac  {passes.failed / passes.attempted:.6g} "
          f"({passes.failed} of {passes.attempted} jobs)")
    for note in notes:
        print("# " + note)
    for problem in passes.problems[:20]:
        print("FAILED " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if passes.failed == 0 else 1


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        # a run whose jobs failed exits 1 but still prints its result
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            print(f"[{workload}] exited {proc.returncode} without a result")
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fcone benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
