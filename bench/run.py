"""Benchmark of the synthaudit command line on seeded, locally generated workloads.

    python3 bench/run.py --workload audit-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every timed run is a fresh, single-threaded
``python -m synthaudit audit|sweep|link`` process given only ``--plan``/``-c``
and ``--out``; runs go one at a time (a closed loop with one client) until
``--seconds`` have passed, and at least MIN_RUNS times.

``--trace 0`` reports the end-to-end metrics: the median wall time of a run
(interpreter start and import included), candidate pairs per second, the
median peak RSS of the run's process, the median set-up time (a fresh
process that imports ``synthaudit.cli`` and parses and validates the plan,
nothing else), and the share of runs that succeeded. The benchmark and its
processes share one CPU, and a fixed kernel (``bench/calibrate.py``) times the
host's current speed before each process and after the last; both times are
medians of per-process wall times scaled to nominal host speed, and the raw
medians are printed beside them.

``--trace 1`` alternates untraced runs with runs under ``bench/traced_cli.py``,
which records spans around each layer's public functions, and reports each
layer's self time and exact counts, plus the tracing overhead (traced minus
untraced run time). The exact counts must repeat across traced runs, and
candidate pairs and matches must agree with the untraced runs.

Every run's outputs are digested and compared with the first run's digest,
which is printed with the result, so that runs of two commits on one seed can
be compared. Once per invocation, untimed, a seeded sample of targets of the
first run is checked against ``tests/linkage_oracle.py``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
0 when every check passed, 1 when one failed, and 2 when the checkout lacks
the program or its oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from calibrate import NOMINAL_S, Calibration
from workloads import WORKLOADS, Inputs, Workload, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_PROBES = 9
DEADLINE_S = 170.0  # the whole benchmark must end within 180 s
ORACLE_RESERVE_S = 15.0
SETUP_PROBE = (
    "import sys\n"
    "import synthaudit.cli\n"
    "from synthaudit.config import load_config\n"
    "load_config(sys.argv[1])\n"
)

END_TO_END_UNITS = {
    "run_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}
# per-layer metric -> layers whose self time it sums
SELF_TIMES = {
    "config.load_s": ("config.load",),
    "dataset.load_s": ("dataset.load",),
    "dataset.save_s": ("dataset.save",),
    "outliers.detect_s": ("outliers.detect",),
    "dp_synth.synthesize_s": ("dp_synth.synthesize",),
    "utility.compute_s": ("utility.compute",),
    "linkage.attack_s": ("linkage.attack",),
    "linkage.save_matches_s": ("linkage.save_matches",),
    "report.write_s": ("report.write",),
    "comparators.score_s": ("comparators.score",),
    "audit.self_s": ("audit.run", "audit.sweep"),
    "cli.self_s": ("cli.main",),
}
CALLS = {
    "linkage.attack_calls": "linkage.attack",
    "dataset.load_calls": "dataset.load",
    "outliers.detect_calls": "outliers.detect",
    "dp_synth.synthesize_calls": "dp_synth.synthesize",
    "comparators.score_calls": "comparators.score",
}
COUNTS = (
    "linkage.candidate_pairs",
    "linkage.matches",
    "linkage.unique_matches",
    "outliers.targets",
    "dataset.rows_read",
    "dataset.rows_dropped",
    "dataset.rows_written",
)
EXACT = tuple(CALLS) + COUNTS
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in EXACT},
    "linkage.match_ratio": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_layers": "count",
}


@dataclass
class Run:
    """One CLI process: its wall time, peak RSS and what the checks found."""

    seconds: float
    rss_mb: float
    error: str | None
    outputs: checks.Outputs | None
    trace: dict | None = None


class Bench:
    """One workload and seed: its generated inputs and the processes measured on them."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = started
        self.python = [sys.executable]
        self.env = {k: v for k, v in os.environ.items() if k != "SYNTHAUDIT_OUT"}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.inputs: Inputs = generate(workload, seed, workdir / "inputs")
        self.expected_pairs, self.shape = checks.expected_pairs(workload, self.inputs)
        self.reference: str | None = None  # output digest of the first run
        self.setup_speed = Calibration()
        self.run_speed = Calibration()
        self._rows_read: dict[str, int] = {}

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, cmd: list[str], log: Path) -> tuple[float, float, int]:
        """Run cmd to completion under bench/measure.py; return (wall seconds, peak RSS MB, exit code).

        The command is stopped when the benchmark's deadline passes or the
        benchmark itself is interrupted, and always waited for.
        """
        result = log.with_suffix(".json")
        result.unlink(missing_ok=True)
        measure = [sys.executable, "-I", "-S", str(BENCH_DIR / "measure.py"), str(result), str(log), "--"]
        proc = subprocess.Popen(measure + cmd, stdin=subprocess.DEVNULL, env=self.env, cwd=ROOT)
        ready = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready = bool(select.select([pidfd], [], [], max(1.0, self.time_left()))[0])
            finally:
                os.close(pidfd)
        finally:
            if not ready:
                proc.terminate()  # measure.py kills the command first
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            done = json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0.0, 0.0, proc.returncode or 1
        return done["seconds"], done["peak_rss_kb"] / 1024.0, done["exit"]

    def setup_seconds(self) -> list[float]:
        cmd = self.python + ["-c", SETUP_PROBE, str(self.inputs.config)]
        times = []
        for _ in range(SETUP_PROBES):
            self.setup_speed.sample()
            seconds, _, code = self.spawn(cmd, self.workdir / "setup.log")
            if code != 0:
                raise SystemExit(f"set-up probe failed:\n{(self.workdir / 'setup.log').read_text()[-2000:]}")
            times.append(seconds)
        self.setup_speed.sample()
        return times

    def run_once(self, out_dir: Path, traced: bool, run_id: str) -> Run:
        if out_dir.exists():
            shutil.rmtree(out_dir)
        argv = self.inputs.argv(self.workload.command, out_dir)
        spans = self.workdir / f"spans-{run_id}.json"
        if traced:
            cmd = self.python + [str(BENCH_DIR / "traced_cli.py"), str(spans), run_id, "--"] + argv
        else:
            cmd = self.python + ["-m", "synthaudit"] + argv
        log = self.workdir / f"run-{run_id}.log"
        seconds, rss_mb, code = self.spawn(cmd, log)
        if code != 0:
            tail = log.read_text(errors="replace")[-500:]
            return Run(seconds, rss_mb, f"exit code {code}: {tail}", None)
        try:
            outputs = checks.read_outputs(self.workload.command, out_dir)
        except checks.CheckError as exc:
            return Run(seconds, rss_mb, str(exc), None)
        run = Run(seconds, rss_mb, None, outputs)
        if outputs.failed_variants:
            run.error = f"{outputs.failed_variants} variant(s) failed"
        elif self.reference is not None and outputs.digest != self.reference:
            run.error = f"output digest {outputs.digest[:12]} != first run's {self.reference[:12]}"
        elif outputs.reported_pairs is not None and outputs.reported_pairs != self.expected_pairs:
            run.error = f"report gives {outputs.reported_pairs} candidate pairs, inputs {self.expected_pairs}"
        if traced:
            try:
                run.trace = layer_metrics(json.loads(spans.read_text(encoding="utf-8")), self.rows_read)
            except (OSError, ValueError) as exc:
                run.error = run.error or f"no spans: {exc}"
        return run

    def rows_read(self, path: str) -> int:
        """Data records in a CSV file (header excluded)."""
        if path not in self._rows_read:
            with open(path, encoding="utf-8") as fh:
                self._rows_read[path] = sum(1 for _ in fh) - 1
        return self._rows_read[path]

    def loop(self, seconds: int, trace: bool) -> tuple[list[Run], list[Run]]:
        """Timed runs until `seconds` have passed; with trace, traced runs interleaved."""
        plain: list[Run] = []
        traced: list[Run] = []
        begin = time.perf_counter()
        while True:
            k = len(plain)
            self.run_speed.sample()
            plain.append(self.run_once(self.workdir / ("out0" if k == 0 else "out"), False, f"plain{k}"))
            if self.reference is None and plain[0].outputs is not None:
                self.reference = plain[0].outputs.digest
            if trace:
                traced.append(self.run_once(self.workdir / "out", True, f"{self.workload.name}:{self.seed}:{k}"))
            # stop before a run that would end past `seconds`, once there are enough
            step = plain[-1].seconds + (traced[-1].seconds if trace else 0.0)
            enough = len(plain) >= (MIN_TRACED_RUNS if trace else MIN_RUNS)
            if enough and time.perf_counter() - begin + step > seconds:
                break
            if self.time_left() < ORACLE_RESERVE_S + 1.5 * step:
                break
        self.run_speed.sample()
        return plain, traced


def layer_metrics(doc: dict, rows_read) -> dict:
    """Self time per layer, calls and exact counts from one traced run's spans."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in doc["spans"]:
        if parent is not None:
            covered[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span_id, _, layer, start, end in doc["spans"]:
        self_time[layer] += (end - start) - covered[span_id]
        calls[layer] += 1
    counts = doc["counts"]
    out = {name: sum(self_time[layer] for layer in layers) for name, layers in SELF_TIMES.items()}
    out.update({name: calls[layer] for name, layer in CALLS.items()})
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    out["dataset.rows_read"] = sum(rows_read(p) for p in counts.get("dataset.paths", []))
    out["dataset.rows_dropped"] = out["dataset.rows_read"] - counts.get("dataset.rows_kept", 0)
    out["missing"] = sorted(set(doc["missing"]) | set(doc["uncounted"]))
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a checkout that is not a repository records its source hash only
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "load": "closed loop, 1 client: one single-threaded CLI process at a time",
    }


def end_to_end(bench: Bench, plain: list[Run], setup: list[float], failed: int, attempted: int) -> dict:
    print(
        f"raw medians: run {statistics.median(r.seconds for r in plain)} s, setup {statistics.median(setup)} s; "
        f"speed kernel: run {statistics.median(bench.run_speed.samples)} s, "
        f"setup {statistics.median(bench.setup_speed.samples)} s (nominal {NOMINAL_S} s)"
    )
    run_s = statistics.median(bench.run_speed.scale([r.seconds for r in plain]))
    return {
        "run_s": run_s,
        "pairs_per_s": bench.expected_pairs / run_s,
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        "setup_s": statistics.median(bench.setup_speed.scale(setup)),
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(bench: Bench, plain: list[Run], traced: list[Run], problems: list[str]) -> dict:
    """Medians of the traced self times; exact counts, checked to repeat and to agree."""
    docs = [r.trace for r in traced if r.trace is not None]
    if not docs:
        problems.append("no traced run produced spans")
        return {name: 0 for name in PER_LAYER_UNITS}
    metrics = {name: statistics.median(d[name] for d in docs) for name in SELF_TIMES}
    for name in EXACT:
        values = {d[name] for d in docs}
        if len(values) != 1:
            problems.append(f"{name} differs across traced runs: {sorted(values)}")
        metrics[name] = docs[0][name]
    missing = docs[0]["missing"]
    if "linkage.attack" not in missing:
        if metrics["linkage.candidate_pairs"] != bench.expected_pairs:
            problems.append(
                f"traced candidate pairs {metrics['linkage.candidate_pairs']} != inputs {bench.expected_pairs}"
            )
        matches = {r.outputs.matches for r in plain + traced if r.outputs is not None}
        if matches != {metrics["linkage.matches"]}:
            problems.append(f"traced matches {metrics['linkage.matches']} != run outputs {sorted(matches)}")
    pairs = metrics["linkage.candidate_pairs"]
    metrics["linkage.match_ratio"] = metrics["linkage.matches"] / pairs if pairs else 0.0
    metrics["trace.run_s"] = statistics.median(r.seconds for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(r.seconds for r in plain)
    metrics["trace.missing_layers"] = len(missing)
    if missing:
        print(f"missing layers (not traced or not counted): {', '.join(missing)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    # on SIGTERM, unwind through the finally blocks that stop the child and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "synthaudit" / "cli.py", ROOT / "tests" / "linkage_oracle.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a synthaudit checkout", file=sys.stderr)
            return 2

    # the speed kernel must time the CPU the measured processes run on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(workload, args.seed, workdir, started)
        print("env: " + json.dumps(environment(), sort_keys=True))
        print("workload: " + json.dumps(
            {"name": workload.name, "command": workload.command, "raw_rows": workload.rows,
             "seed": args.seed, "candidate_pairs": bench.expected_pairs, **workload.params, **bench.shape},
            sort_keys=True,
        ))
        setup = bench.setup_seconds() if not args.trace else []
        plain, traced = bench.loop(args.seconds, bool(args.trace))

        problems = [f"run {k}: {r.error}" for k, r in enumerate(plain + traced) if r.error]
        attempted = len(plain) + len(traced)
        failed = sum(1 for r in plain + traced if r.error)
        if plain[0].outputs is not None:
            try:
                checked = checks.oracle_check(
                    workload, bench.inputs, workdir / "out0", args.seed, bench.python + ["-m", "synthaudit"], bench.env
                )
                print(f"oracle: {checked} sampled pairs agree")
            except checks.CheckError as exc:
                problems.append(f"oracle: {exc}")
        print(f"output digest: {bench.reference}")

        if args.trace:
            metrics = per_layer(bench, plain, traced, problems)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(bench, plain, setup, failed, attempted)
            units = END_TO_END_UNITS
            print(f"error_rate: {failed / attempted} ratio")
        print(f"runs: {len(plain)} untraced, {len(traced)} traced; run_s samples {[round(r.seconds, 4) for r in plain]}")
        for name, value in metrics.items():
            print(f"{name}: {value} {units[name]}")
        for problem in problems:
            print(f"FAILED {problem}")
        correct = not problems
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
