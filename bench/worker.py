"""Benchmark worker: runs `strucnet.cli.main` in a closed loop, one verdict at a time.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan names the CLI argument lists (jobs), the seconds to measure and
whether to trace. The worker makes one untimed warm-up verdict, then runs
whole rounds over the jobs until the time is up, so every job is measured
equally often. Only the `main()` call is timed; the machine-speed probe
runs between verdicts, and each verdict's time is also kept scaled by the
mean of the probes before and after it (see probe.py). Each verdict's output is
reduced to the fields the checker needs (verdict, certificates, exit code);
identical answers are stored once.

With tracing, untraced rounds alternate with rounds under the tracer; the
worker reports per-function calls and self time from the traced rounds,
and the traced/untraced time ratio.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import probe
import strucnet.cli
import tracer as tracing


def _answer(kind: str, rc, stdout: str, error: str | None) -> dict:
    answer: dict = {"rc": rc, "error": error}
    if error is not None or rc not in (0, 1):
        return answer
    try:
        report = json.loads(stdout)
        if kind == "check":
            checks = report["checks"]
            answer.update(
                valid=report["valid"],
                controllable=report["controllable"],
                plain=checks["assembled"]["forcing_sequence"],
                shifted=checks["assembled_shifted"]["forcing_sequence"],
            )
        else:
            audit = report["audit"]
            answer.update(
                controllable=report["symbolic_controllable"],
                consistent=report["consistent"],
                trials=audit["trials_run"],
                failures=audit["failures"],
            )
    except (ValueError, KeyError, TypeError) as exc:
        answer["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
    return answer


class Loop:
    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.answers: dict = {}  # canonical answer text -> id
        self.verdicts: list = []  # [job, answer id, duration ns, traced, scaled ns]
        self.rounds = 0
        self.report_bytes = 0
        self.tracer = None
        self.last_probe = probe.measure()

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                rc = self.cli.main(argv)  # looked up per call so the tracer's wrapper is used
            except SystemExit as exc:
                rc, error = exc.code, f"SystemExit({exc.code!r}): {err.getvalue()[-200:]}"
            except Exception as exc:  # a crash is a failed verdict, not a benchmark crash
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
        if rc == 2 and error is None:
            error = err.getvalue()[-300:]
        return rc, out.getvalue(), error, end - start

    def run_round(self, traced: bool) -> None:
        for index, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.verdict = len(self.verdicts)
            rc, stdout, error, ns = self.call(job["argv"])
            before, self.last_probe = self.last_probe, probe.measure()
            scaled = ns * probe.REF_NS * 2 / (before + self.last_probe)
            if traced:
                self.report_bytes += len(stdout.encode())
            key = json.dumps(_answer(job["kind"], rc, stdout, error), sort_keys=True)
            answer_id = self.answers.setdefault(key, len(self.answers))
            self.verdicts.append([index, answer_id, ns, int(traced), scaled])
        self.rounds += 1

    def run_for(self, seconds: float) -> None:
        """Whole rounds until `seconds` have passed; with a tracer, each
        untraced round is followed by a traced one, so drift hits both alike."""
        start = time.perf_counter()
        while not self.rounds or time.perf_counter() - start < seconds:
            self.run_round(traced=False)
            if self.tracer is not None:
                self.tracer.install()
                try:
                    self.run_round(traced=True)
                finally:
                    self.tracer.uninstall()


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    jobs = plan["jobs"]
    loop = Loop(strucnet.cli, jobs)
    loop.call(jobs[0]["argv"])  # warm-up, not recorded
    result: dict = {}
    if plan["trace"]:
        loop.tracer = tracing.Tracer()
    loop.run_for(plan["seconds"])
    if loop.tracer is not None:
        loop.tracer.write_spans(plan["spans_path"])
        result["layers"] = {name: list(v) for name, v in loop.tracer.summary().items()}
        result["counts"] = {name: loop.tracer.counts[name] for name in tracing.COUNTS}
        result["missing"] = loop.tracer.missing
        result["hook_errors"] = dict(loop.tracer.hook_errors)
        result["report_bytes"] = loop.report_bytes
    result.update(
        verdicts=loop.verdicts,
        rounds=loop.rounds,
        answers=[json.loads(key) for key in loop.answers],
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
