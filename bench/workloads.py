"""The benchmark's workloads: their tasks, inputs and verdict checks.

A task is one call (or a short chain of calls) into a public `pmtoy`
function that ends in a verdict.  Each task returns the facts it
observed; `mismatches` compares them with the hand-written answer in
expected.json.  A round is one pass over a workload's task list; the
runner draws one round and repeats it.  Exhaustive tasks are the same
for every seed; sampled tasks draw their inputs from a `random.Random`
that the runner seeds from `--seed`, so pmtoy only ever sees generated
inputs.

Spans are opened around each call into a layer and named
`<module>.<call>`; counters record the work each call did.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from pmtoy import cli, pauli
from pmtoy.machine import MealyMachine, Transcript, enumerate_transcripts, step
from pmtoy.pauli import ks_scan_summary, qm_outcome_tree, tree_transcripts
from pmtoy.verify import FAMILIES, check_transcript, refute_variant, search_machines, verify_machine

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Sampled sizes are large enough that a round's cost varies little from
# one seed to the next.
ORACLE_SAMPLE = 400  # length-4 sequences, out of 9^4
TRIPLES_PER_LENGTH = 32  # per machine and per sequence length 1..8
TRANSCRIPT_MACHINES = ("extended32", "extended32-randomized", "spekkens16")
SIMULATE_MACHINE = "extended32-randomized"
SIMULATE_LENGTH = 8

ORACLE_EXHAUSTIVE = tuple(
    seq for n in (1, 2, 3) for seq in itertools.product(pauli.OBSERVABLE_NAMES, repeat=n)
)
LENGTH4 = tuple(itertools.product(pauli.OBSERVABLE_NAMES, repeat=4))


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


@dataclass(frozen=True)
class Task:
    key: str  # entry of the workload's section in expected.json
    inputs: tuple  # what pmtoy receives, for tests and reports
    run: Callable  # run(tracer) -> observed facts


def mismatches(observed: dict, expected: dict) -> list[str]:
    """Fields of `observed` that miss the known answer.

    `max_<field>` and `min_<field>` bound a field; any other key must be
    equal.
    """
    out = []
    for key, want in expected.items():
        field, op = key, "=="
        if key.startswith(("max_", "min_")):
            field, op = key[4:], ("<=" if key.startswith("max_") else ">=")
        got = observed.get(field)
        if got is None:
            ok = False
        elif op == "<=":
            ok = got <= want
        elif op == ">=":
            ok = got >= want
        else:
            ok = got == want
        if not ok:
            out.append(f"{key}: expected {want!r}, observed {got!r}")
    return out


class Env:
    """Machines and families built once per process, as the CLI builds them."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.machines = {name: cli.build_machine(name) for name in cli.BUILTIN_MACHINES}
        self.families = {name: make() for name, make in FAMILIES.items()}
        self.drawn = [tuple(edge) for edge in expected["drawn_diagram"]]


def _context(seq, positions) -> list[str]:
    return sorted({seq[p] for p in positions})


def _render_checked(tr, report) -> bool:
    with tr.span("verify.report_render"):
        text = report.to_json()
    return json.loads(text)["violations"] == [v.to_dict() for v in report.violations]


def verify_task(m: MealyMachine, depth: int) -> Task:
    def run(tr):
        with tr.span("verify.verify"):
            report = verify_machine(m, depth)
        tr.count("verify.violations", len(report.violations))
        observed = {
            "passed": report.passed,
            "sequences_checked": report.sequences_checked,
            "renders": _render_checked(tr, report),
        }
        if report.violations:
            v = report.violations[0]
            observed.update(
                first_violation_kind=v.kind,
                first_violation_context=_context(v.sequence, v.positions),
                first_violation_length=len(v.sequence),
                first_violation_expected=v.expected,
                first_violation_observed=v.observed,
            )
        return observed

    return Task(f"verify {m.name} depth {depth}", (m.name, depth), run)


def refute_task(kind: str) -> Task:
    def run(tr):
        with tr.span("verify.refute"):
            v = refute_variant(kind)
        return {
            "kind": v.kind,
            "context": _context(v.sequence, v.positions),
            "expected": v.expected,
            "observed": v.observed,
            "length": len(v.sequence),
        }

    return Task(f"refute {kind}", (kind,), run)


def _has_edges(m: MealyMachine, edges) -> bool:
    return all(m.successors(src, obs) == (m.state_index(dst),) for src, obs, dst in edges)


def search_task(env: Env, family: str, depth: int) -> Task:
    def run(tr):
        with tr.span("verify.search"):
            outcome = search_machines(env.families[family], depth)
        tr.count("verify.search_nodes", outcome.nodes)
        tr.count("verify.search_completions", outcome.completions)
        observed = {"exhausted": outcome.exhausted, "completions": outcome.completions}
        if family == "paper4":
            observed["contains_drawn_diagram"] = any(
                _has_edges(m, env.drawn) for m in outcome.machines
            )
        return observed

    return Task(f"search {family} depth {depth}", (family, depth), run)


def _check_all(tr, transcripts) -> int:
    with tr.span("verify.check"):
        n = sum(len(check_transcript(t)) for t in transcripts)
    tr.count("verify.check_calls", len(transcripts))
    return n


def tree_task(seq: tuple[str, ...]) -> Task:
    def run(tr):
        with tr.span("pauli.tree"):
            root = qm_outcome_tree(seq)
        with tr.span("pauli.walk"):
            branches = list(tree_transcripts(root))
        tr.count("pauli.branches", len(branches))
        probs = [p for _, p in branches]
        # Transcript weights must be positive; the float branch weights
        # are checked separately below.
        transcripts = [Transcript(seq, outs, Fraction(1), "qm") for outs, _ in branches]
        return {
            "violations": _check_all(tr, transcripts),
            "nonpositive_branches": sum(p <= 0 for p in probs),
            "probability_sum_error": abs(sum(probs) - 1.0),
        }

    return Task("qm tree", seq, run)


def ks_task() -> Task:
    def run(tr):
        with tr.span("pauli.ks_scan"):
            summary = ks_scan_summary()
        return {k: summary[k] for k in ("tables", "qm_satisfying", "six_product_values")}

    return Task("ks scan", (), run)


def transcripts_task(m: MealyMachine, start: int, seq: tuple[str, ...], walk_seed: int) -> Task:
    def run(tr):
        with tr.span("machine.enumerate"):
            transcripts = enumerate_transcripts(m, start, seq)
        tr.count("machine.transcripts", len(transcripts))
        violations = _check_all(tr, transcripts)
        rng = random.Random(walk_seed)
        state, outs = start, []
        with tr.span("machine.step"):
            for obs in seq:
                out, state = step(m, state, obs, rng)
                outs.append(out)
        tr.count("machine.step_calls", len(seq))
        ends = {(t.outputs, t.end_state) for t in transcripts}
        return {
            "probability_sum": str(sum(t.probability for t in transcripts)),
            "violations": violations,
            "walk_in_transcripts": (tuple(outs), m.states[state]) in ends,
        }

    return Task(f"transcripts {m.name}", (m.name, start, seq, walk_seed), run)


def roundtrip_task(m: MealyMachine) -> Task:
    def run(tr):
        with tr.span("machine.json_roundtrip"):
            back = MealyMachine.from_json(m.to_json())
        return {"equal": back == m}

    return Task("json roundtrip", (m.name,), run)


def _random_seq(rng: random.Random, n: int) -> tuple[str, ...]:
    return tuple(rng.choice(pauli.OBSERVABLE_NAMES) for _ in range(n))


# --- rounds ---------------------------------------------------------------


def verify_builtins_round(env: Env, rng: random.Random) -> list[Task]:
    m = env.machines
    return [
        verify_task(m["spekkens16"], 3),
        verify_task(m["spekkens16"], 6),
        verify_task(m["extended32"], 6),
        verify_task(m["extended32-randomized"], 6),
        verify_task(m["paper4"], 6),
        verify_task(m["extended32"], 5000),
        refute_task("single_trigger"),
        refute_task("same_destination"),
        search_task(env, "paper4", 4),
        search_task(env, "cplus16", 3),
    ]


def oracle_trees_round(env: Env, rng: random.Random) -> list[Task]:
    sample = rng.sample(LENGTH4, ORACLE_SAMPLE)
    return [tree_task(seq) for seq in ORACLE_EXHAUSTIVE + tuple(sample)] + [ks_task()]


def machine_transcripts_round(env: Env, rng: random.Random) -> list[Task]:
    tasks = []
    for name in TRANSCRIPT_MACHINES:
        m = env.machines[name]
        for length in range(1, 9):
            for _ in range(TRIPLES_PER_LENGTH):
                start = rng.randrange(len(m.states))
                seq = _random_seq(rng, length)
                tasks.append(transcripts_task(m, start, seq, rng.getrandbits(64)))
    tasks += [roundtrip_task(env.machines[name]) for name in cli.BUILTIN_MACHINES]
    return tasks


# --- the representative CLI command of each workload -----------------------


@dataclass(frozen=True)
class CliCommand:
    argv: tuple[str, ...]
    takes_output: bool  # whether the subcommand accepts --output
    observe: Callable  # observe(exit_code, report_text) -> observed facts


def _json_fields(*fields):
    def observe(code, text):
        data = json.loads(text) if code == 0 else {}
        return {"exit_code": code, **{f: data.get(f) for f in fields}}

    return observe


def cli_command(workload: str, env: Env, rng: random.Random) -> CliCommand:
    if workload == "verify-builtins":
        argv = ("verify", "--machine", "extended32", "--depth", "6")

        def observe(code, text):
            data = json.loads(text) if code == 0 else {}
            return {
                "exit_code": code,
                "passed": data.get("violations") == [],
                "sequences_checked": data.get("sequences_checked"),
            }

        return CliCommand(argv, True, observe)
    if workload == "oracle-trees":
        argv = ("ks-scan", "--format", "json")
        return CliCommand(argv, True, _json_fields("tables", "qm_satisfying", "six_product_values"))
    if workload == "machine-transcripts":
        m = env.machines[SIMULATE_MACHINE]
        seq = _random_seq(rng, SIMULATE_LENGTH)
        seed = rng.getrandbits(32)
        start = m.states[0]
        argv = ("simulate", "--machine", m.name, "--start", start, "--seq", ",".join(seq), "--seed", str(seed))

        def observe(code, text):
            observed = {"exit_code": code}
            if code != 0:
                return observed
            lines = text.splitlines()
            outs = tuple(int(line.split(" output ")[1].split()[0]) for line in lines if line.startswith("step "))
            final = lines[-1].removeprefix("final state: ")
            transcripts = enumerate_transcripts(m, start, seq)
            observed["walk_in_transcripts"] = (outs, final) in {(t.outputs, t.end_state) for t in transcripts}
            observed["violations"] = len(check_transcript(Transcript(seq, outs, Fraction(1), final)))
            return observed

        return CliCommand(argv, False, observe)
    raise ValueError(f"unknown workload {workload!r}")


ROUNDS = {
    "verify-builtins": verify_builtins_round,
    "oracle-trees": oracle_trees_round,
    "machine-transcripts": machine_transcripts_round,
}
