"""strucnet benchmark: time to verdict and verdict correctness.

Usage (from the repository root):

    python3 bench/run.py --workload {check-large,check-pool,audit} \
        --seed N --seconds S --trace {0,1}

Generates the workload's network files from the seed under .bench_out/,
measures `import strucnet.cli` in fresh interpreters (setup_s), then runs
one worker interpreter that calls `strucnet.cli.main` in a closed loop with
one client for S seconds. Times are scaled to a fixed machine speed by a
probe timed next to every verdict (probe.py). Every verdict is checked
against a reference written without strucnet (refcheck.py); positive
`check` certificates are replayed on the reference graphs. See NOTES.md.
The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Exits 2 without a result when the strucnet sources are not present.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import refcheck
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
RUN_LIMIT_S = 170

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter_ns(); import strucnet.cli; "
    "t = time.perf_counter_ns() - t; sys.path.insert(0, 'bench'); import probe; "
    "print(t, min(probe.measure() for _ in range(3)))"
)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # set and dict orders repeat from run to run
    # One BLAS thread: audit ranks and failure counts repeat exactly, and
    # the worker never competes with itself for the two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> float:
    """Median seconds for a fresh interpreter to import strucnet.cli, speed-scaled."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if k:  # the first import also writes bytecode caches
            import_ns, probe_ns = map(int, out.stdout.split())
            times.append(import_ns / 1e9 * probe.REF_NS / probe_ns)
    return statistics.median(times)


def check_answer(job: workloads.Job, answer: dict) -> tuple[bool, bool, str]:
    """(correct, failed, reason) for one distinct answer of one job.

    An audit that calls a controllable network inconsistent is a failed
    operation (the oracle's false alarm) but not a wrong verdict.
    """
    if answer.get("error") is not None or answer.get("rc") not in (0, 1):
        return False, True, f"rc {answer.get('rc')}: {answer.get('error')}"
    if answer["controllable"] is not job.controllable:
        return False, True, f"verdict {answer['controllable']}, reference {job.controllable}"
    if job.kind == "check":
        if answer["valid"] is not True or answer["rc"] != (0 if job.controllable else 1):
            return False, True, f"valid {answer['valid']}, rc {answer['rc']}"
        if job.controllable:
            n, plain, shifted = job.graphs
            for label, graph, seq in (("plain", plain, answer["plain"]), ("shifted", shifted, answer["shifted"])):
                problem = refcheck.replay(n, graph, seq)
                if problem:
                    return False, True, f"{label} certificate: {problem}"
        return True, False, ""
    if answer["trials"] != workloads.AUDIT_TRIALS or answer["rc"] != (0 if answer["consistent"] else 1):
        return False, True, f"trials {answer['trials']}, rc {answer['rc']}, consistent {answer['consistent']}"
    if answer["consistent"] is not (not job.controllable or answer["failures"] == 0):
        return False, True, f"consistent {answer['consistent']} with {answer['failures']} failures"
    if not answer["consistent"]:
        return True, True, f"false alarm: {answer['failures']}/{answer['trials']} trials fail"
    return True, False, ""


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least 10 samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        raise RuntimeError(f"{len(ordered)} verdicts are too few for a tail with 10 samples beyond it")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def family(job: workloads.Job) -> str:
    """The network family of a job: its name up to the first '-' ('fixture' for shipped files)."""
    return job.name.split("-")[0] if "-" in job.name else "fixture"


def end_to_end(result: dict, setup_s: float, jobs: list) -> tuple[dict, list]:
    ms = [v[4] / 1e6 for v in result["verdicts"]]
    by_family: dict = {}
    for v in result["verdicts"]:
        by_family.setdefault(family(jobs[v[0]]), []).append(v[4] / 1e6)
    value, pct = tail(ms)
    raw_ms = statistics.median(v[2] / 1e6 for v in result["verdicts"])
    metrics = {
        "verdict_ms.p50": metric(statistics.median(ms), "ms"),
        "verdict_ms.tail": metric(value, "ms"),
        "verdicts_per_s": metric(len(ms) / (sum(ms) / 1e3), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024, "MB"),
    }
    notes = [
        f"verdict_ms.tail is p{pct:.2f} of {len(ms)} verdicts",
        f"rounds: {result['rounds']}",
        f"unscaled verdict_ms.p50 = {raw_ms:.6g} ms",
    ]
    notes += [
        f"family {name}: verdict_ms.p50 = {statistics.median(times):.6g} ms over {len(times)} verdicts"
        for name, times in sorted(by_family.items())
    ]
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list]:
    traced = [v for v in result["verdicts"] if v[3]]
    count = len(traced)
    traced_ns = sum(v[2] for v in traced)
    # Speed-scaled sums: traced and untraced rounds alternate, but the
    # machine's speed may still differ between them.
    overhead = sum(v[4] for v in traced) / sum(v[4] for v in result["verdicts"] if not v[3]) - 1.0
    metrics = {}
    for name in tracer.NAMES:
        calls, self_ns = result["layers"][name]
        metrics[f"{name}.calls"] = metric(calls / count, "count")
        metrics[f"{name}.self_ms"] = metric(self_ns / 1e6 / count, "ms")
        metrics[f"{name}.share"] = metric(self_ns / traced_ns, "share")
    for name in tracer.COUNTS:
        metrics[name] = metric(result["counts"][name] / count, "count")
    metrics["cli.report_bytes"] = metric(result["report_bytes"] / count, "bytes")
    metrics["trace.overhead_share"] = metric(overhead, "share")
    notes = [f"traced verdicts: {count}"]
    if result["missing"]:
        notes.append(f"missing wrapped names: {', '.join(result['missing'])}")
    if result["hook_errors"]:
        notes.append(f"count hooks that could not read a return value: {result['hook_errors']}")
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    needed = [ROOT / "src" / "strucnet" / "cli.py"] + [ROOT / "fixtures" / f for f in workloads.FIXTURES]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a strucnet checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    jobs = workloads.build(args.workload, args.seed, out / "inputs", ROOT)
    env = worker_env()

    plan = {
        "jobs": [{"argv": job.argv, "kind": job.kind} for job in jobs],
        "seconds": args.seconds,
        "trace": args.trace,
        "spans_path": str(out / "spans.jsonl"),
    }
    (out / "plan.json").write_text(json.dumps(plan))
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), str(out / "plan.json"), str(out / "result.json")],
            env=env, cwd=ROOT, timeout=budget, check=True,
        )
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"error: worker did not finish: {exc}", file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())

    verdict_of = {}
    for job_index, answer_id, *_times in result["verdicts"]:
        if (job_index, answer_id) not in verdict_of:
            verdict_of[(job_index, answer_id)] = check_answer(jobs[job_index], result["answers"][answer_id])
    attempted = len(result["verdicts"])
    failed = sum(verdict_of[(v[0], v[1])][1] for v in result["verdicts"])
    correct = all(ok for ok, _failed, _reason in verdict_of.values())
    for (job_index, _answer_id), (ok, is_failed, reason) in sorted(verdict_of.items()):
        if is_failed or not ok:
            print(f"{'FAILED' if ok else 'WRONG'} {jobs[job_index].name}: {reason}")

    if args.trace:
        metrics, notes = per_layer(result)
    else:
        metrics, notes = end_to_end(result, measure_setup(env), jobs)
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs "
          f"({sum(j.controllable for j in jobs)} controllable), {attempted} verdicts")
    print(f"failed_share = {failed / attempted:.6f} share ({failed}/{attempted})")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
