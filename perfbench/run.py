"""Entry point of the diffcomp benchmark.

One run of one workload, in this process:

    python3 perfbench/run.py --workload run-stream --seed 1 --seconds 25 --trace 0

prints every end-to-end metric (`--trace 0`) or every per-layer metric
(`--trace 1`) with its unit, and as its last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  A traced run also
writes its spans to `.bench_out/trace-<workload>-seed<seed>.json`.

Several runs, each in a fresh interpreter, with the median, quartiles and
relative spread of every end-to-end metric:

    python3 perfbench/run.py --report --workload all --seeds 1-10 --seconds 25

Run from the root of a diffcomp checkout: the program is imported from
`src/`.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_JOBS = 100  # the 90th percentile needs ten samples beyond it
STARTUP_SAMPLES = 5
# The host's speed drifts by up to 2x over tens of seconds (the same
# Fraction loop takes 65 ms, then 125 ms), far beyond any useful bound.  So
# a short calibration loop runs before every job and around every set-up,
# and times are reported at reference speed: scaled by CAL_REF_S over the
# local median calibration time.  Raw times are printed beside them.
CAL_REF_S = 0.002
CAL_WINDOW = 4  # calibration samples on each side of a job

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def provenance(workload, seed, cap) -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": workload.name, "seed": seed, "inputs_digest": workload.inputs_digest,
            "python": platform.python_version(), "cpu_count": os.cpu_count(), "git_sha": sha,
            "src_lines": src_lines, "DIFFCOMP_MAX_TERMS": cap or "unset (default cap)"}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


_CAL_TABLE: dict = {}


def calibration_sample() -> float:
    """Seconds for a fixed mix of work like the program's own: Fraction
    arithmetic, then a derivative-like scan of a 12,000-entry dict."""
    if not _CAL_TABLE:
        rng = random.Random(0)
        for _ in range(12000):
            key = tuple(rng.randrange(36) for _ in range(6))
            _CAL_TABLE[key] = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
    t0 = time.perf_counter()
    a, s = Fraction(1, 3), Fraction(0)
    for i in range(300):
        s += a * Fraction(i, 7)
    out: dict = {}
    for key, value in _CAL_TABLE.items():
        if key[0] < 18:
            acc = out.get(key[1:])
            out[key[1:]] = value if acc is None else acc + value
    return time.perf_counter() - t0


def at_reference_speed(latencies, cal) -> list[float]:
    """Scale each latency by CAL_REF_S over the median calibration around it."""
    return [t * CAL_REF_S / statistics.median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, t in enumerate(latencies)]


def _set_up(workload) -> tuple[float, float, bool]:
    """(raw seconds, seconds at reference speed, warm-up answers right?)"""
    workload.release()
    gc.collect()
    cal = [calibration_sample() for _ in range(CAL_WINDOW + 1)]
    t0 = time.perf_counter()
    workload.setup()
    ok = workload.warm_up()
    dt = time.perf_counter() - t0
    cal += [calibration_sample() for _ in range(CAL_WINDOW + 1)]
    return dt, dt * CAL_REF_S / statistics.median(cal), ok


def _run_job(job):
    """(latency in s, answer right?, answer)"""
    t0 = time.perf_counter()
    try:
        answer = job.call()
    except Exception as exc:  # an unexpected error is a failed job, not a crash
        answer = exc
    latency = time.perf_counter() - t0
    try:
        ok = not isinstance(answer, Exception) and bool(job.check(answer))
    except Exception:
        ok = False
    return latency, ok, answer


def run_untraced(workload, seconds, smoke) -> tuple[dict, int, int, list[str]]:
    raw_setups, setups, setup_ok = [], [], True
    for _ in range(1 if smoke else SETUP_REPEATS):
        raw, scaled, ok = _set_up(workload)
        raw_setups.append(raw)
        setups.append(scaled)
        setup_ok &= ok
    gc.collect()
    raw, cal, kinds, failed = [], [], [], 0 if setup_ok else 1
    start, k = time.perf_counter(), 0
    min_jobs = 1 if smoke else MIN_JOBS
    while True:
        for job in workload.cycle(k):
            cal.append(calibration_sample())
            latency, ok, _ = _run_job(job)
            raw.append(latency)
            kinds.append(job.kind)
            failed += not ok
        k += 1
        if time.perf_counter() - start >= seconds and len(raw) >= min_jobs:
            break
    latencies = at_reference_speed(raw, cal)
    attempted = len(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": attempted / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": _p90(latencies) * 1e3,
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    by_kind = defaultdict(list)
    for kind, t in zip(kinds, latencies):
        by_kind[kind].append(t)
    notes = [f"fail_frac {failed / attempted} ratio  ({failed} of {attempted} jobs)",
             f"samples {attempted} jobs in {k} cycles, {attempted - int(0.9 * attempted)} "
             f"beyond p90; set-ups {len(setups)} at reference speed: "
             + " ".join(f"{s:.4f}" for s in setups),
             f"raw (unscaled): setup_s {statistics.median(raw_setups)} s, jobs_per_s "
             f"{attempted / sum(raw)} 1/s, job_p50_ms {statistics.median(raw) * 1e3} ms, "
             f"job_p90_ms {_p90(raw) * 1e3} ms; calibration median "
             f"{statistics.median(cal) * 1e3:.3f} ms (reference {CAL_REF_S * 1e3} ms)",
             "job mix (share, median ms) " + ", ".join(
                 f"{kind} {len(ts) / attempted:.0%} {statistics.median(ts) * 1e3:.1f}"
                 for kind, ts in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])))]
    return metrics, attempted, failed, notes


def run_traced(workload, seed) -> tuple[dict, int, int, list[str]]:
    """Traced set-up, then every job twice in a row: untraced, then traced.

    Running the pair back to back keeps the host's speed drift out of
    trace.overhead_frac.  Counts repeat exactly for a seed because the job
    list is fixed: one cycle, not a time budget."""
    import tracer as tracing
    tr = tracing.Tracer()
    tr.install()
    _, _, setup_ok = _set_up(workload)
    tr.uninstall()
    if workload.name == "cli-session":
        workload.trace_into = tr
    plain, traced, failed, wrapped = [], [], 0 if setup_ok else 1, 0.0
    for i, job in enumerate(workload.cycle(0)):
        workload.trace_into, saved = None, workload.trace_into
        latency, ok, answer = _run_job(job)
        plain.append(latency)
        workload.trace_into = saved
        tr.install()
        tr.begin_job(job.kind, i)
        latency, traced_ok, traced_answer = _run_job(job)
        wrapped += tr.wrapped_time()
        tr.uninstall()
        traced.append(latency)
        # CLI stdout and exit code must not change under tracing
        same = workload.name != "cli-session" or answer == traced_answer
        failed += (not ok) + (not (traced_ok and same))
    extra = {}
    if workload.name == "cli-session":
        wrapped = workload.child_wrapped_s
        mains = [s["end"] - s["start"] for s in tr.spans
                 if s["name"] == "cli.main" and s["kind"] != "setup" and "end" in s]
        extra["cli.inproc_frac"] = sum(mains) / sum(traced)
        starts = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import diffcomp.cli"], env=workload.env,
                           check=True, timeout=120)
            starts.append(time.perf_counter() - t0)
        extra["cli.startup_ms"] = statistics.median(starts) * 1e3
    extra["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    extra["trace.bench_self_frac"] = (sum(traced) - wrapped) / sum(traced)
    metrics = tracing.layer_metrics(tr, extra)
    out = ROOT / ".bench_out" / f"trace-{workload.name}-seed{seed}.json"
    tracing.write_json(out, dict(tr.to_json(), metrics={k: v[0] for k, v in metrics.items()},
                                 provenance=workload.provenance,
                                 job_seconds={"untraced": plain, "traced": traced}))
    attempted = len(plain) + len(traced)
    notes = [f"fail_frac {failed / attempted} ratio  ({failed} of {attempted} jobs, "
             "both passes)", f"trace written to {out.relative_to(ROOT)}"]
    if tr.missing:
        notes.append("not wrapped (absent): " + ", ".join(tr.missing))
    return metrics, attempted, failed, notes


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import diffcomp
    if Path(diffcomp.__file__).resolve().parent != (ROOT / "src" / "diffcomp").resolve():
        print(f"error: imported diffcomp from {diffcomp.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads
    try:
        # one CPU for this process and its children, so the calibration
        # before a job measures the CPU the job then runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not offered here: run unpinned
        pass
    cap = os.environ.pop("DIFFCOMP_MAX_TERMS", None)  # runs use the default cap
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
    wl.provenance = provenance(wl, args.seed, cap)
    try:
        if args.trace:
            metrics, attempted, failed, notes = run_traced(wl, args.seed)
        else:
            metrics, attempted, failed, notes = run_untraced(wl, args.seconds, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print("provenance " + json.dumps(wl.provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


# -- steadiness report ---------------------------------------------------------------

def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def report(args) -> int:
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    bounds = {}
    if (ROOT / "BENCHMARK.json").exists():
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"] + (["--smoke"] * args.smoke)
            p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if p.returncode != 0:
                print(p.stdout + p.stderr, file=sys.stderr)
                return 1
            result = json.loads(p.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{m} {v['value']:.5g} {v['unit']}," for m, v in result["metrics"].items())
                + f" fail_frac {result['failed'] / result['attempted']} ratio,"
                f" samples {result['attempted']}", flush=True)
            print("".join(f"    {line}\n" for line in p.stdout.splitlines()
                          if line.startswith(("job mix", "samples"))), end="", flush=True)
        summary[name] = {}
        for metric, unit in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            verdict = "" if bound is None else \
                ("  ok (< bound/3)" if spread < bound / 3 else
                 "  within bound" if spread <= bound else "  OVER BOUND")
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "values": values}
            print(f"  {name} {metric:12s} median {med:10.5g} {unit:4s} q1 {q1:10.5g} "
                  f"q3 {q3:10.5g} spread {spread:.4f}" + (f" bound {bound}" if bound else "")
                  + verdict, flush=True)
        summary[name]["all_correct"] = all(r["correct"] for r in runs)
    out = ROOT / ".bench_out" / f"report-{args.workload}-{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"report written to {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["run-stream", "certify", "cli-session", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run each workload once per seed in a fresh interpreter and "
                             "print median, quartiles and spread")
    parser.add_argument("--seeds", default="1-10", help="for --report: e.g. 1-10 or 3,5,8")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diffcomp" / "__init__.py").is_file():
        print(f"error: no diffcomp sources under {ROOT / 'src'}; run from a diffcomp checkout",
              file=sys.stderr)
        return 2
    if args.report:
        return report(args)
    if args.workload == "all":
        parser.error("--workload all needs --report")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
