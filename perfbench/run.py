"""descentlab benchmark: one workload, closed loop, one client, no threads.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The workload first chooses its inputs from the seed, untimed.  With
``--trace 0`` it then runs jobs back to back for ``--seconds`` and reports
the end-to-end metrics; the timed loop is cut into seven segments, and the
workload is set up afresh before each (median reported as ``setup_s``).  With ``--trace 1`` it sets up once, then runs each job
of one list plain and under the span wrappers of ``spans.py``, in
alternating order (the per-layer metrics), and a prefix of the list under
cProfile (``scalars.fraction_share`` only).  Every job is checked against a
known answer; the last line of standard output is one JSON object, and the
exit code is 1 if any job failed.  Metric names and units are the ones
``BENCHMARK.json`` declares.

The end-to-end times are reported at a reference machine pace: between
segments of the timed loop, and around every set-up, the run times a fixed
exact-elimination kernel that uses no descentlab code, and scales each
segment's times by ``PACE_REF_S`` over the kernel's time around it.  The
raw times are printed beside them.
"""

import argparse
import cProfile
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Machine speed on a shared VM drifts in stretches of several seconds, so
# set-ups taken back to back would all land in one stretch; spread through
# the run, their median follows the run as a whole.
SETUPS = 7

# Machine pace.  The same work takes up to 1.7 times as long in the VM's
# slow stretches, and process CPU time slows with it, so raw times measure
# the stretch a run fell into.  A small exact elimination slows alike; the
# end-to-end times are scaled by PACE_REF_S over its time around them.
PACE_REF_S = 0.010      # the kernel's time at reference pace
PACE_EVERY_S = 0.5      # timed-loop segment between two pace readings
PACE_N, PACE_RANK = 40, 39     # kernel matrix size and its known rank


def pace_kernel(n=PACE_N):
    """Rank of a fixed sparse n x n rational matrix by exact row reduction,
    in plain Python: the kind of work descentlab does, none of its code."""
    rng = random.Random(7)
    rows = [{rng.randrange(n): Fraction(rng.randrange(-9, 10) or 1,
                                        rng.randrange(1, 6))
             for _ in range(4)} for _ in range(n)]
    pivots = {}
    for row in rows:
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            piv = pivots[col]
            f = row[col] / piv[col]
            for k, v in piv.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


def pace():
    """Seconds the pace kernel takes now: the better of two passes."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        rank = pace_kernel()
        best = min(best, time.perf_counter() - t0)
    if rank != PACE_RANK:
        raise RuntimeError(f"pace kernel rank {rank}, expected {PACE_RANK}")
    return best


def _purge_descentlab():
    for name in [n for n in sys.modules
                 if n == "descentlab" or n.startswith("descentlab.")]:
        del sys.modules[name]


def set_up(workload, seed, workdir):
    """Import the package afresh and build the inputs; returns seconds."""
    _purge_descentlab()
    t0 = time.perf_counter()
    workload.setup(seed, workdir)
    return time.perf_counter() - t0


class Ledger:
    """Per-job verdict times and failures of one pass."""

    def __init__(self):
        self.times = []
        self.failures = []
        self.jobs = []
        self.wall = 0.0
        self.scaled = []       # job times at reference pace
        self.scaled_wall = 0.0

    def paced(self, first, wall, factor):
        """Scale the jobs from index ``first`` on, run in ``wall`` seconds,
        to reference pace."""
        self.wall += wall
        self.scaled_wall += wall * factor
        self.scaled += [t * factor for t in self.times[first:]]

    @property
    def passed(self):
        return len(self.times) - len(self.failures)

    def run(self, workload, job, tracer=None, job_id=-1):
        """Run one job on fresh inputs, timed, and record it.  With a
        tracer, its wrappers are installed only around the timed call, so
        the untimed rebuild of the inputs leaves no spans."""
        inp = workload.fresh(job)
        if tracer is not None:
            tracer.install(job_id)
        t0 = time.perf_counter()
        try:
            ok, detail = workload.run(job, inp)
        except Exception:     # a job that raises is a failed job, not a crash
            ok, detail = False, traceback.format_exc(limit=-3)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        self.times.append(t1 - t0)
        self.jobs.append(job)
        if not ok:
            self.failures.append((job, detail))


def run_jobs(workload, jobs):
    """Run ``jobs`` once, back to back; returns a Ledger."""
    led = Ledger()
    for job in jobs:
        led.run(workload, job)
    return led


def tail(times):
    """(value, percentile, samples beyond): the highest percentile that still
    has at least ten samples above it."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[(n - 1) // 2], 50.0 * (n > 1), n - 1 - (n - 1) // 2
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(args, workload, workdir):
    led, setups, raw_setups, i = Ledger(), [], [], 0
    paces = [pace()]

    def factor():
        """Reference pace over the mean of the last two pace readings."""
        paces.append(pace())
        return 2 * PACE_REF_S / (paces[-2] + paces[-1])

    for _ in range(SETUPS):
        raw_setups.append(set_up(workload, args.seed, workdir))
        setups.append(raw_setups[-1] * factor())
        jobs = workload.cycle()      # the same list after every set-up
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < args.seconds / SETUPS:
            first, t_seg = len(led.times), time.perf_counter()
            while time.perf_counter() - t_seg < PACE_EVERY_S:
                led.run(workload, jobs[i % len(jobs)])
                i += 1
            led.paced(first, time.perf_counter() - t_seg, factor())
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_val, t_pct, t_beyond = tail(led.scaled)
    n = len(led.times)
    metrics = {
        "jobs_per_s": led.passed / led.scaled_wall,
        "verdict_p50_s": statistics.median(led.scaled),
        "verdict_tail_s": t_val,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mib,
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
        f"{led.wall:.2f} s measured",
        f"  pace            kernel {statistics.median(paces) * 1e3:.2f} ms "
        f"(median of {len(paces)} readings, "
        f"{min(paces) * 1e3:.2f}-{max(paces) * 1e3:.2f}); times below at "
        f"the reference {PACE_REF_S * 1e3:.2f} ms, raw in brackets",
        f"  jobs_per_s      {metrics['jobs_per_s']:.4f} jobs/s "
        f"[{led.passed / led.wall:.4f}] ({led.passed} passed jobs)",
        f"  verdict_p50_s   {metrics['verdict_p50_s']:.4f} s "
        f"[{statistics.median(led.times):.4f}] (median of {n} jobs)",
        f"  verdict_tail_s  {t_val:.4f} s [{tail(led.times)[0]:.4f}] "
        f"(p{t_pct:.1f} of {n} jobs, {t_beyond} beyond)",
        f"  setup_s         {metrics['setup_s']:.4f} s "
        f"[{statistics.median(raw_setups):.4f}] (median of "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"  peak_rss_mb     {rss_mib:.1f} MiB",
        f"  fail_ratio      {len(led.failures)}/{n} = "
        f"{len(led.failures) / n:.4f} failed/attempted",
    ]
    return metrics, [led], lines


def traced(args, workload, workdir):
    import spans

    set_up(workload, args.seed, workdir)
    # the job list: a tour of every job kind, then the timed loop's other
    # jobs until the plain runs have taken a third of the run.  Each job runs
    # plain and traced back to back, the order alternating from job to job,
    # so drift in machine speed and the warm second run fall on both alike.
    tour = workload.tour()
    jobs = tour + [job for job in workload.cycle() if job not in tour]
    tracer = spans.Tracer()
    ref, trc = Ledger(), Ledger()
    for i, job in enumerate(jobs):
        if i >= len(tour) and sum(ref.times) >= args.seconds / 3:
            break
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                trc.run(workload, job, tracer, i)
            else:
                ref.run(workload, job)
    jobs = ref.jobs

    # profiled pass: the longest prefix of the same list (one job at least)
    # worth a ninth of the run in plain time; cProfile makes these jobs three
    # to five times slower
    prof = cProfile.Profile()
    prefix, acc = [], 0.0
    for job, t in zip(jobs, ref.times):
        if prefix and acc + t > args.seconds / 9:
            break
        prefix.append(job)
        acc += t
    prof.enable()
    try:
        pro = run_jobs(workload, prefix)
    finally:
        prof.disable()
    prof.create_stats()

    missing = tracer.unreached(args.workload)
    if missing:
        raise spans.WrapTargetMissing(
            f"wrap targets not reached on {args.workload}: {missing}")

    plain_wall, job_wall = sum(ref.times), sum(trc.times)
    metrics = spans.layer_metrics(tracer, job_wall, plain_wall,
                                  spans.fraction_share(prof.stats))
    out = os.path.join(ROOT, ".perfbench_out",
                       f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(out)
    lines = [f"workload {args.workload}  seed {args.seed}  traced: "
             f"{len(jobs)} jobs plain {plain_wall:.2f} s, traced "
             f"{job_wall:.2f} s ({len(tracer.start)} spans -> "
             f"{os.path.relpath(out, ROOT)}); profiled pass "
             f"{len(prefix)} jobs {sum(pro.times):.2f} s"]
    if metrics["trace.overhead_ratio"] < 0:
        lines.append("  trace.overhead_ratio is negative: the tracing cost "
                     "is below the noise of this run, not resolved")
    return metrics, [ref, trc, pro], lines


def declared_units(kind):
    """{metric name: unit} of one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "descentlab", "__init__.py")):
        print(f"perfbench: no descentlab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import descentlab
    if not os.path.abspath(descentlab.__file__).startswith(src + os.sep):
        print(f"perfbench: imported descentlab from {descentlab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(ROOT, ".perfbench_out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.plan(args.seed)
        run = traced if args.trace else end_to_end
        metrics, ledgers, lines = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    if args.trace:
        lines += [f"  {k:36s} {metrics[k]:.6g} {u}" for k, u in units.items()]

    attempted = sum(len(led.times) for led in ledgers)
    failures = [f for led in ledgers for f in led.failures]
    for line in lines:
        print(line)
    for job, detail in failures[:5]:
        print(f"  FAILED {job!r}: {detail.strip()}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
