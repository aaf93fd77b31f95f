"""Benchmark driver for the dercat CLI.

Usage:
  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 bench/run.py --workload NAME --record-golden

Runs the workload's job list (workloads.py) from one process, one job at a
time, each job a fresh `python -m dercat.cli` child: a closed loop with one
client.  Inputs that depend on --seed are made first by prep.py, untimed.

--trace 0 measures the end-to-end metrics: set-up probes, then the job list
is run in order and repeated job by job until --seconds have passed (at
least one whole pass).  The driver and its jobs share one CPU, and the speed
probe in calib.py runs after every job; the reported times are scaled to
the probe's reference speed.  --trace 1 runs the list once untraced and once
through traced.py and reports the per-layer metrics (spans.py).

Every job's stdout is checked (workloads.check_output, and the stored digest
in golden.json for the default seed).  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  --record-golden runs one
pass at the default seed and rewrites that workload's digests.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calib
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 0
SETUP_PROBES = 11            # at least this many set-up probes per run
PROBE_EVERY_S = 3.0
JOB_TIMEOUT_S = 120.0
PREP_TIMEOUT_S = 90.0
RUN_BUDGET_S = 170.0          # every run must end well inside 180 s

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_ratio", "ratio")]


@dataclass
class Result:
    job: workloads.Job
    wall: float
    cpu: float
    rss_kb: int
    rc: int
    timed_out: bool
    stdout: str
    error: str = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv, timeout, out_path, err_path):
    """Run argv to completion or timeout; (wall, rusage, exit code, timed out)."""
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
    reaped = {}

    def reap():
        reaped["status"] = os.wait4(proc.pid, 0)
        reaped["end"] = time.perf_counter()

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(max(timeout, 0.0))
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    _, status, usage = reaped["status"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return reaped["end"] - start, usage, proc.returncode, timed_out


class Runner:
    def __init__(self, workload, seed, workdir, golden, deadline):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.golden = golden
        self.deadline = deadline
        self.cals = []               # calibration times, taken after every job

    def argv(self, job, trace_path=None):
        args = [a.replace("{I}", str(workloads.INPUTS)).replace("{W}", str(self.workdir))
                for a in job.args]
        if trace_path is None:
            return [sys.executable, "-m", "dercat.cli"] + args
        return [sys.executable, str(BENCH / "traced.py"), str(trace_path), job.id] + args

    def run(self, job, trace_path=None):
        out, err = self.workdir / "job.out", self.workdir / "job.err"
        left = self.deadline - time.perf_counter()
        if left < 1.0:
            return Result(job, 0.0, 0.0, 0, -1, False, "", "not run: run budget spent")
        wall, usage, rc, timed_out = run_process(
            self.argv(job, trace_path), min(JOB_TIMEOUT_S, left), out, err)
        text = out.read_text(encoding="utf-8", errors="replace")
        res = Result(job, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, rc,
                     timed_out, text)
        res.error = self.check(res)
        if res.error is not None:
            tail = err.read_text(encoding="utf-8", errors="replace")[-400:]
            print("job %s failed: %s\n%s" % (job.id, res.error, tail), file=sys.stderr)
        out.unlink()
        err.unlink()
        self.cals.extend(calib.sample())
        return res

    def check(self, res):
        if res.timed_out:
            return "timeout"
        if res.rc != 0:
            return "exit code %d" % res.rc
        error = workloads.check_output(res.job, res.stdout)
        if error is not None or self.golden is None:
            return error
        if res.job.seeded and self.seed != DEFAULT_SEED:
            return None
        want = self.golden.get(self.workload, {}).get(res.job.id)
        if want is None:
            return "no stored digest"
        if digest(res.stdout) != want:
            return "stdout differs from the golden digest"
        return None


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(workload, seed, workdir, deadline):
    argv = [sys.executable, str(BENCH / "prep.py"), workload, str(seed), str(workdir)]
    timeout = min(PREP_TIMEOUT_S, deadline - time.perf_counter())
    _, _, rc, timed_out = run_process(argv, timeout, workdir / "prep.out", workdir / "prep.err")
    if rc != 0 or timed_out:
        sys.stderr.write((workdir / "prep.err").read_text()[-2000:])
        raise SystemExit("prep failed for %s seed %d" % (workload, seed))
    return json.loads((workdir / "manifest.json").read_text())


def end_to_end(setup, results, cals, untimed=()):
    """The end-to-end metrics; times are scaled to the reference CPU speed.

    `untimed` jobs count only towards attempted and failed."""
    scale = calib.REF_S / statistics.mean(cals)
    per_job = {}
    for r in results:
        if r.error is None:
            per_job.setdefault(r.job.id, []).append(r)
    checked = setup + results + list(untimed)
    failed = sum(1 for r in checked if r.error is not None)
    attempted = len(checked)
    wall = sum(statistics.median(r.wall for r in rs) for rs in per_job.values())
    cpu = sum(statistics.median(r.cpu for r in rs) for rs in per_job.values())
    setup_wall = statistics.median(r.wall for r in setup)
    values = {
        "setup_s": setup_wall * scale,
        "wall_s": wall * scale,
        "cpu_s": cpu * scale,
        "peak_rss_mb": max(r.rss_kb for r in setup + results) / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
    }
    print("speed scale %.4f (calibration mean %.5f s over %d samples)"
          % (scale, statistics.mean(cals), len(cals)))
    print("unscaled: setup_s %.4f s  wall_s %.4f s  cpu_s %.4f s" % (setup_wall, wall, cpu))
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, attempted, failed


def measure(runner, job_list, setup_job, seconds):
    # untimed warm-up: the first call fills the file cache and writes .pyc files
    warm = runner.run(setup_job)
    runner.cals.clear()
    # half the set-up probes come first, the rest between jobs, so that their
    # median spans the whole run rather than its first second
    setup = [runner.run(setup_job) for _ in range(SETUP_PROBES // 2)]
    results = []
    t0 = last_probe = time.perf_counter()
    i = 0
    while i < len(job_list) or time.perf_counter() - t0 < seconds:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            setup.append(runner.run(setup_job))
            last_probe = time.perf_counter()
        results.append(runner.run(job_list[i % len(job_list)]))
        i += 1
    while len(setup) < SETUP_PROBES:
        setup.append(runner.run(setup_job))
    for r in results[:len(job_list)]:
        print("job %-28s wall %8.3f s  cpu %8.3f s  rss %6.1f MB  %s"
              % (r.job.id, r.wall, r.cpu, r.rss_kb / 1024.0, r.error or "ok"))
    print("jobs run %d (list of %d), set-up probes %d" % (len(results), len(job_list), len(setup)))
    metrics, attempted, failed = end_to_end(setup, results, runner.cals, [warm])
    print("fail_ratio %.4f ratio" % (failed / attempted))
    return metrics, attempted, failed


def measure_traced(runner, job_list):
    plain = [runner.run(job) for job in job_list]
    tally = spans.Tally()
    traced = []
    for job in job_list:
        path = runner.workdir / "spans.json"
        res = runner.run(job, trace_path=path)
        traced.append(res)
        if path.exists():
            tally.add_job(spans.load(path))
            path.unlink()
    checked = skipped = 0
    for r in traced:
        c, s = workloads.verify_counts(r.stdout)
        checked += c
        skipped += s
    plain_wall = sum(r.wall for r in plain)
    overhead = (sum(r.wall for r in traced) - plain_wall) / plain_wall if plain_wall else 0.0
    metrics = tally.metrics(checked, skipped, overhead)
    for layer, (own, under) in tally.layer_shares().items():
        print("layer %-10s share of traced time: own code %.3f, under its spans %.3f"
              % (layer, own, under))
    results = plain + traced
    failed = sum(1 for r in results if r.error is not None)
    return metrics, len(results), failed


def record_golden(runner, job_list):
    runner.golden = None
    results = [runner.run(job) for job in job_list]
    bad = [r.job.id for r in results if r.error is not None]
    if bad:
        raise SystemExit("not recording: jobs failed: %s" % ", ".join(bad))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[runner.workload] = {r.job.id: digest(r.stdout) for r in results}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("recorded %d digests for %s" % (len(results), runner.workload))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "dercat" / "cli.py").is_file():
        print("no dercat sources under %s" % SRC, file=sys.stderr)
        return 2
    # the driver and every job share one CPU, so the calibration between jobs
    # sees the speed the jobs ran at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        if args.record_golden:
            args.seed = DEFAULT_SEED
        manifest = prepare(args.workload, args.seed, workdir, deadline)
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        runner = Runner(args.workload, args.seed, workdir, golden, deadline)
        job_list = workloads.JOBS[args.workload](args.seed, manifest)
        if args.record_golden:
            record_golden(runner, [workloads.setup_job(args.workload)] + job_list)
            return 0
        if args.trace:
            metrics, attempted, failed = measure_traced(runner, job_list)
        else:
            metrics, attempted, failed = measure(
                runner, job_list, workloads.setup_job(args.workload), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print("%-34s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
