"""Stochastic Mealy machines with exact rational transition weights.

A machine has a finite set of labelled states, a +/-1 output per (state,
input), and per (state, input) a probability distribution over successor
states.  The input alphabet is the same for every machine and is not a
field: the nine PM observables, indexed in `pauli.OBSERVABLE_NAMES` order.
A machine file may list its input columns in any order, but must name
each of the nine once.  Distributions are exact `Fraction`s: every machine
and family built here is uniform over its listed successors, from one
state up to eight (cplus16), so weights such as 1/3 (all32-bit2) stay
exact.  Machines are immutable after construction and safe to share.

Structural invariants are enforced at build time: a machine has at least
one state, every distribution names each successor once and sums to
exactly 1, and every positive-probability successor assigns the measured
input the same output as the current state (value preservation).
A transition row may also be empty, marking a deliberately partial
machine such as the four-state diagram fixture.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Iterable, Sequence

from . import pauli

TransitionRow = tuple[tuple[int, Fraction], ...]

# The form `to_json_dict` writes a weight in, with a bounded length, so
# reading a file never hands `Fraction` an exponent or a huge numeral.
_PROB = re.compile(r"[0-9]{1,32}(/[0-9]{1,32})?")


def _parse_prob(text: object) -> Fraction:
    if not isinstance(text, str) or not _PROB.fullmatch(text):
        raise ValueError(f"transition prob is not digits[/digits]: {text!r:.40}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"transition prob has a zero denominator: {text!r}") from None


def _parse_output(value: object) -> int:
    # The one output rule, for files and constructors alike.  `type` rather
    # than `isinstance`: JSON true is a bool, and bool an int.
    if type(value) is not int or value not in (1, -1):
        raise ValueError(f"output is not +/-1, the integer 1 or -1: {value!r:.40}")
    return value


def _parse_labels(data: dict, key: str) -> tuple[str, ...]:
    labels = data[key]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError(f"machine {key} must be a list of strings")
    return tuple(labels)


def _keyed(value: object, keys: Sequence[str], what: str) -> list:
    # Exactly the keys `to_json_dict` writes, none missing and none extra;
    # the values come in the order of `keys`.
    if not isinstance(value, dict) or value.keys() != set(keys):
        raise ValueError(f"{what} must have exactly the keys {', '.join(keys):.80}")
    return [value[k] for k in keys]


def _table(data: dict, key: str, states: tuple, parse: Callable) -> tuple:
    return tuple(
        tuple(map(parse, _keyed(row, pauli.OBSERVABLE_NAMES, f"machine {key}[{s!r}]")))
        for s, row in zip(states, _keyed(data[key], states, f"machine {key}"))
    )


def _parse_row(entries: object, index: dict[str, int]) -> TransitionRow:
    if not isinstance(entries, list):
        raise ValueError(f"transition row is not a list: {entries!r:.40}")
    row = []
    for to, prob in (_keyed(e, ("to", "prob"), "transition entry") for e in entries):
        if not isinstance(to, str) or to not in index:
            raise ValueError(f"transition to an unknown state: {to!r:.40}")
        row.append((index[to], _parse_prob(prob)))
    return tuple(row)


def uniform_row(successors: Iterable[int]) -> TransitionRow:
    succ = tuple(successors)
    if not succ:
        return ()
    p = Fraction(1, len(succ))
    return tuple((t, p) for t in succ)


def deterministic_row(successor: int) -> TransitionRow:
    return ((successor, Fraction(1)),)


@dataclass(frozen=True)
class MealyMachine:
    name: str
    states: tuple[str, ...]
    outputs: tuple[tuple[int, ...], ...]
    transitions: tuple[tuple[TransitionRow, ...], ...]
    notes: tuple[str, ...] = field(default=(), compare=False)
    inputs: ClassVar[tuple[str, ...]] = pauli.OBSERVABLE_NAMES

    def __post_init__(self) -> None:
        n, k = len(self.states), len(self.inputs)
        if n == 0:
            raise ValueError("machine has no states")
        if len(set(self.states)) != n:
            raise ValueError("duplicate state labels")
        if len(self.outputs) != n or any(len(row) != k for row in self.outputs):
            raise ValueError("output table shape mismatch")
        if len(self.transitions) != n or any(
            len(row) != k for row in self.transitions
        ):
            raise ValueError("transition table shape mismatch")
        for s in range(n):
            for i in range(k):
                _parse_output(self.outputs[s][i])
                row = self.transitions[s][i]
                if not row:
                    continue
                if len({t for t, _ in row}) != len(row):
                    raise ValueError(
                        f"repeated successor at ({self.states[s]},{self.inputs[i]})"
                    )
                total = sum(p for _, p in row)
                if total != 1:
                    raise ValueError(
                        f"distribution at ({self.states[s]},{self.inputs[i]}) "
                        f"sums to {total}"
                    )
                for t, p in row:
                    if p <= 0:
                        raise ValueError("non-positive transition weight")
                    if not 0 <= t < n:
                        raise ValueError("successor index out of range")
                    if self.outputs[t][i] != self.outputs[s][i]:
                        raise ValueError(
                            "value preservation violated at "
                            f"({self.states[s]},{self.inputs[i]})->{self.states[t]}"
                        )

    def state_index(self, state: int | str) -> int:
        if isinstance(state, int):
            if not 0 <= state < len(self.states):
                raise ValueError(f"state index out of range: {state}")
            return state
        try:
            return self.states.index(state)
        except ValueError:
            raise ValueError(f"unknown state label: {state!r}") from None

    def input_index(self, inp: int | str) -> int:
        if isinstance(inp, int):
            if not 0 <= inp < len(self.inputs):
                raise ValueError(f"input index out of range: {inp}")
            return inp
        try:
            return self.inputs.index(inp)
        except ValueError:
            raise ValueError(f"unknown input: {inp!r}") from None

    @property
    def is_total(self) -> bool:
        return all(row for srow in self.transitions for row in srow)

    @property
    def is_deterministic(self) -> bool:
        return all(
            len(row) <= 1 for srow in self.transitions for row in srow
        )

    def successors(self, state: int | str, inp: int | str) -> tuple[int, ...]:
        s, i = self.state_index(state), self.input_index(inp)
        return tuple(t for t, _ in self.transitions[s][i])

    def output(self, state: int | str, inp: int | str) -> int:
        return self.outputs[self.state_index(state)][self.input_index(inp)]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": list(self.inputs),
            "states": list(self.states),
            "outputs": {
                label: {
                    inp: self.outputs[s][i] for i, inp in enumerate(self.inputs)
                }
                for s, label in enumerate(self.states)
            },
            "transitions": {
                label: {
                    inp: [
                        {"to": self.states[t], "prob": str(p)}
                        for t, p in self.transitions[s][i]
                    ]
                    for i, inp in enumerate(self.inputs)
                }
                for s, label in enumerate(self.states)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "MealyMachine":
        _keyed(data, ("name", "inputs", "states", "outputs", "transitions"), "machine")
        if not isinstance(data["name"], str):
            raise ValueError(f"machine name is not a string: {data['name']!r:.40}")
        inputs = _parse_labels(data, "inputs")
        if sorted(inputs) != sorted(cls.inputs):
            raise ValueError(
                f"machine inputs must be the nine PM observables, each once: {list(inputs)!r:.200}"
            )
        states = _parse_labels(data, "states")
        index = {label: i for i, label in enumerate(states)}
        outputs = _table(data, "outputs", states, _parse_output)
        transitions = _table(data, "transitions", states, lambda r: _parse_row(r, index))
        return cls(data["name"], states, outputs, transitions)

    @classmethod
    def from_json(cls, text: str) -> "MealyMachine":
        return cls.from_json_dict(json.loads(text))


def step(
    m: MealyMachine, state: int | str, inp: int | str, rng: random.Random
) -> tuple[int, int]:
    """One machine step: emit the output and sample the successor.

    Returns (output, next state index).  With a seeded rng, runs replay
    identically.
    """
    s, i = m.state_index(state), m.input_index(inp)
    row = m.transitions[s][i]
    if not row:
        raise ValueError(
            f"no transition defined at ({m.states[s]}, {m.inputs[i]})"
        )
    out = m.outputs[s][i]
    r = rng.random()
    acc = Fraction(0)
    for t, p in row:
        acc += p
        if r < acc:
            return out, t
    return out, row[-1][0]


@dataclass(frozen=True)
class Transcript:
    """One positive-probability run: inputs, outputs, weight, final state."""

    inputs: tuple[str, ...]
    outputs: tuple[int, ...]
    probability: Fraction
    end_state: str

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs/outputs length mismatch")
        if self.probability <= 0:
            raise ValueError("transcript probability must be positive")


def enumerate_transcripts(
    m: MealyMachine, start: int | str, seq: Sequence[str]
) -> tuple[Transcript, ...]:
    """All positive-probability output/state paths for an input sequence.

    One forward pass over the inputs merges paths with equal outputs and
    state at every step, so run length has no limit.  The last output needs
    no transition: an undefined row there ends the run in its state.  On a
    partial machine, branches that hit an undefined transition earlier are
    dropped, so the probabilities may sum to less than 1; on total machines
    they sum to exactly 1.  Sorted by outputs, then end state index.
    """
    s0 = m.state_index(start)
    idx_seq = [m.input_index(o) for o in seq]
    runs: dict[tuple[tuple[int, ...], int], Fraction] = {((), s0): Fraction(1)}
    for pos, i in enumerate(idx_seq, 1):
        advanced: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (outputs, s), prob in runs.items():
            outputs += (m.outputs[s][i],)
            row = m.transitions[s][i]
            if not row and pos == len(idx_seq):
                row = ((s, Fraction(1)),)
            for t, p in row:
                advanced[outputs, t] = advanced.get((outputs, t), 0) + prob * p
        runs = advanced
    return tuple(
        Transcript(tuple(seq), outputs, prob, m.states[s])
        for (outputs, s), prob in sorted(runs.items())
    )
