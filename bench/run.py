"""pmtoy benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout holding `src/pmtoy`).
One run, single-threaded, measures:

1. set-up: a fresh interpreter imports `pmtoy.cli` and builds every
   builtin machine, variant and candidate family (bench/probe.py);
2. the workload's representative `pmtoy` command, run as a subprocess
   of this interpreter, with its exit code and verdict checked;
3. rounds of the workload's tasks for S seconds, each verdict checked
   against bench/expected.json.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 rounds alternate untraced and traced, spans are recorded
around every call into a layer, and the last line holds the per-layer
metrics (per traced round) plus self times and the tracing overhead.
The line before it records the seed, an environment fingerprint, the
sample counts, the failed ratio and any failures.  The layer-metric map
is in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

REPS = 10  # set-up probes and CLI runs per benchmark run
SUBPROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "cli_s": "s",
}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PMTOY_REPORT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_timed(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
    )
    return time.perf_counter() - t0, proc


def fingerprint() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pmtoy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Outcomes:
    """Counts verdicts attempted, mismatched and raised, once per distinct operation.

    An operation is one task of the round (or the CLI command) with its
    fixed inputs.  Rounds repeat the same operations for timing, so each
    is attempted once per run, and it fails if any of its repeats gave a
    wrong verdict or raised.  The counts then depend only on the workload
    and seed, not on how many rounds fit in the time.
    """

    def __init__(self) -> None:
        self.verdicts = 0  # verdicts checked, repeats included
        self.state: dict = {}  # operation -> "ok", "raised" or "mismatched"
        self.failures: Counter[str] = Counter()  # distinct failure -> times seen

    def record(self, op, key: str, problems: list[str], raised: bool = False) -> None:
        self.verdicts += 1
        now = "mismatched" if problems and not raised else "raised" if raised else "ok"
        before = self.state.get(op, "ok")
        self.state[op] = now if before == "ok" or now == "mismatched" else before
        if problems:
            self.failures[f"{key}: {'; '.join(problems)}"[:300]] += 1

    @property
    def attempted(self) -> int:
        return len(self.state)

    @property
    def mismatched(self) -> int:
        return sum(v == "mismatched" for v in self.state.values())

    @property
    def raised(self) -> int:
        return sum(v == "raised" for v in self.state.values())

    @property
    def failed(self) -> int:
        return self.mismatched + self.raised


def run_task(task, expected: dict, tr, outcomes: Outcomes, op=None) -> None:
    """Run one task and record its verdict under `op` (default: its key)."""
    raised = False
    with tr.span("task " + task.key):
        try:
            problems = workloads.mismatches(task.run(tr), expected[task.key])
        except Exception as exc:  # a task that raises is a failed verdict
            problems, raised = [f"raised {type(exc).__name__}: {exc}"], True
    outcomes.record(task.key if op is None else op, task.key, problems, raised)


class SideRuns:
    """Set-up probes and CLI runs, one repeat at a time.

    `measure_rounds` spreads the repeats over the whole run, between
    rounds, so a burst of load from other tenants cannot slow all of them.
    """

    def __init__(self, command, expected: dict, trace: bool, outcomes: Outcomes, tmp: Path):
        self.command = command
        self.expected = expected
        self.trace = trace
        self.outcomes = outcomes
        self.report = tmp / "report"
        self.setup_walls: list[float] = []
        self.setup_steps: dict[str, list[float]] = defaultdict(list)
        self.cli_walls: list[float] = []
        self.cli_main_ms: list[float] = []

    def warm_up(self) -> None:
        """One untimed probe and CLI run, so bytecode caches exist."""
        self._probe()
        self._cli()

    def once(self) -> None:
        wall, steps = self._probe()
        self.setup_walls.append(wall)
        for key, value in steps.items():
            self.setup_steps[key].append(value)
        if self.trace:
            self.cli_main_ms.append(self._cli_main())
        else:
            self.cli_walls.append(self._cli())

    def _probe(self) -> tuple[float, dict]:
        """A fresh interpreter's set-up: wall seconds and its step times."""
        wall, proc = _run_timed([sys.executable, str(BENCH / "probe.py")])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return wall, json.loads(proc.stdout.splitlines()[-1])

    def _check(self, label: str, code: int, text: str) -> None:
        try:
            problems = workloads.mismatches(self.command.observe(code, text), self.expected)
        except (ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.outcomes.record(label, f"{label} {' '.join(self.command.argv)}", problems)

    def _cli(self) -> float:
        """Wall seconds of the command run as a subprocess."""
        wall, proc = _run_timed([sys.executable, "-m", "pmtoy.cli", *self.command.argv])
        self._check("cli", proc.returncode, proc.stdout)
        return wall

    def _cli_main(self) -> float:
        """Milliseconds of an in-process `cli.main`, its report in a temp file."""
        from pmtoy import cli

        argv = list(self.command.argv)
        if self.command.takes_output:
            argv += ["--output", str(self.report)]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        ms = (time.perf_counter() - t0) * 1000
        self._check("cli.main", code, self.report.read_text() if self.command.takes_output else stdout.getvalue())
        return ms


def measure_rounds(
    workload: str, env, rng: random.Random, seconds: float, trace: bool, outcomes, side: SideRuns, reps: int
):
    """Repeat the workload's round until `seconds` pass; with trace, odd rounds are traced.

    The round's inputs are drawn once, so every task repeats with the
    same inputs.  Returns each task's times in untraced and in traced
    rounds, the number of each kind of round, and the tracer.  One
    warm-up round runs first and is not counted.  At least one round
    runs, and a traced run makes at least one traced and one untraced.
    The `reps` side runs are spread evenly over the time, between rounds.
    """
    tasks = workloads.ROUNDS[workload](env, rng)
    expected = env.expected[workload]
    untraced = tracing.NullTracer()
    for task in tasks:
        run_task(task, expected, untraced, Outcomes())
    tracer = tracing.Tracer()
    times = {traced: [[] for _ in tasks] for traced in (False, True)}
    rounds = Counter()
    side.warm_up()
    start = time.perf_counter()
    i = done = 0
    while i < 1 + trace or time.perf_counter() < start + seconds:
        traced = trace and i % 2 == 1
        tr = tracer if traced else untraced
        for op, (task, task_times) in enumerate(zip(tasks, times[traced])):
            t0 = time.perf_counter()
            run_task(task, expected, tr, outcomes, op)
            task_times.append(time.perf_counter() - t0)
        rounds[traced] += 1
        i += 1
        if done < reps and time.perf_counter() >= start + seconds * done / reps:
            side.once()
            done += 1
    for _ in range(done, reps):
        side.once()
    return times, rounds, tracer


def best_times(times: list[list[float]]) -> list[float]:
    """Each task's fastest time over the rounds it ran in.

    The host is shared: slower repeats of the same task measure other
    tenants' load, not pmtoy, so the best of several repeats is the
    steadiest estimate of a task's cost.
    """
    return [min(ts) for ts in times if ts]


def layer_metrics(tracer, traced_rounds: int, overhead_per_s: float) -> dict[str, float]:
    """Per-layer metrics per traced round, from the spans and counters."""
    n = traced_rounds
    dur: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    self_s: dict[str, float] = defaultdict(float)
    selfs = tracing.self_times(tracer.spans)
    task_s = 0.0
    for s in tracer.spans:
        dur[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.parent is None:
            task_s += s.end - s.start
            self_s["bench"] += selfs[s.id]
        else:
            self_s[s.name.split(".")[0]] += selfs[s.id]
    c = tracer.counters

    def ms(name):
        return dur[name] * 1000 / n

    def rate(count, *spans):
        busy = sum(dur[s] for s in spans)
        return count / busy if busy else 0.0

    return {
        "pauli.tree_calls": calls["pauli.tree"] / n,
        "pauli.tree_ms": ms("pauli.tree"),
        "pauli.walk_ms": ms("pauli.walk"),
        "pauli.branches": c["pauli.branches"] / n,
        "pauli.branches_per_s": rate(c["pauli.branches"], "pauli.tree", "pauli.walk"),
        "pauli.ks_scan_ms": ms("pauli.ks_scan"),
        "machine.enumerate_calls": calls["machine.enumerate"] / n,
        "machine.enumerate_ms": ms("machine.enumerate"),
        "machine.transcripts": c["machine.transcripts"] / n,
        "machine.step_calls": c["machine.step_calls"] / n,
        "machine.step_ms": ms("machine.step"),
        "machine.json_roundtrip_ms": ms("machine.json_roundtrip"),
        "verify.verify_calls": calls["verify.verify"] / n,
        "verify.verify_ms": ms("verify.verify"),
        "verify.violations": c["verify.violations"] / n,
        "verify.refute_ms": ms("verify.refute"),
        "verify.report_render_ms": ms("verify.report_render"),
        "verify.search_calls": calls["verify.search"] / n,
        "verify.search_ms": ms("verify.search"),
        "verify.search_nodes": c["verify.search_nodes"] / n,
        "verify.search_completions": c["verify.search_completions"] / n,
        "verify.search_nodes_per_s": rate(c["verify.search_nodes"], "verify.search"),
        "verify.check_calls": c["verify.check_calls"] / n,
        "verify.check_ms": ms("verify.check"),
        "pauli.self_ms": self_s["pauli"] * 1000 / n,
        "machine.self_ms": self_s["machine"] * 1000 / n,
        "verify.self_ms": self_s["verify"] * 1000 / n,
        "bench.task_ms": task_s * 1000 / n,
        "bench.uncovered_ms": self_s["bench"] * 1000 / n,
        "bench.uncovered_share": self_s["bench"] / task_s if task_s else 0.0,
        "bench.trace_overhead_per_s": overhead_per_s,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, reps: int = REPS, expected=None):
    """One benchmark run; returns (info, result) as printed."""
    expected = workloads.load_expected() if expected is None else expected
    rng = random.Random(seed)
    outcomes = Outcomes()

    env = workloads.Env(expected)
    command = workloads.cli_command(workload, env, rng)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        side = SideRuns(command, expected[workload]["cli"], trace, outcomes, Path(tmp))
        times, rounds, tracer = measure_rounds(workload, env, rng, seconds, trace, outcomes, side, reps)
    best_ms = sorted(s * 1000 for s in best_times(times[False]))
    untraced_rate = len(best_ms) * 1000 / sum(best_ms)
    p90 = statistics.quantiles(best_ms, n=10, method="inclusive")[8] if len(best_ms) > 1 else best_ms[0]

    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "fingerprint": fingerprint(),
        "cli_argv": list(command.argv),
        "rounds": rounds[False] + rounds[True],
        "verdict_samples": len(best_ms),
        "samples_beyond_p90": sum(s > p90 for s in best_ms),
        "attempted": outcomes.attempted,
        "verdicts_checked": outcomes.verdicts,
        "mismatched": outcomes.mismatched,
        "raised": outcomes.raised,
        "failed_ratio": outcomes.failed / outcomes.attempted,
        "failures": dict(outcomes.failures.most_common(8)),
    }
    if trace:
        traced = best_times(times[True])
        traced_rate = len(traced) / sum(traced)
        metrics = layer_metrics(tracer, rounds[True], untraced_rate - traced_rate)
        metrics.update({k: statistics.median(v) for k, v in side.setup_steps.items()})
        metrics["cli.main_ms"] = min(side.cli_main_ms)
        info["traced_verdicts_per_s"] = traced_rate
        info["untraced_verdicts_per_s"] = untraced_rate
    else:
        metrics = {
            "setup_s": statistics.median(side.setup_walls),
            "verdicts_per_s": untraced_rate,
            "verdict_ms.p50": statistics.median(best_ms),
            "verdict_ms.p90": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cli_s": min(side.cli_walls),
        }
    result = {
        "correct": outcomes.mismatched == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or unit_of(k)} for k, v in metrics.items()},
    }
    return info, result


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
