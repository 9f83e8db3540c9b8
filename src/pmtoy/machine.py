"""Stochastic Mealy machines with exact rational transition weights.

A machine has a finite set of labelled states, a +/-1 output per (state,
input), and per (state, input) a probability distribution over successor
states.  The input alphabet is the same for every machine and is not a
field: the nine PM observables, indexed in `pauli.OBSERVABLE_NAMES` order.
A machine file may list its input columns in any order, but must name
each of the nine once.  Distributions are exact `Fraction`s: every machine
and family built here is uniform over its listed successors, from one
state up to eight (cplus16), so weights such as 1/3 (all32-bit2) stay
exact.  `step` samples a successor by comparing its float draw with the
cumulative weights exactly, as integers over the row's common
denominator.  `enumerate_transcripts` weighs each run by an integer over
one running denominator, the product of each step's common denominator,
and gives each transcript one reduced `Fraction`.  Machines and
transcripts are checked `NamedTuple`s, immutable and safe to share:
every way of building one (the constructor, `_make`, `_replace`,
unpickling) runs its checks.

Structural invariants are enforced at build time: a machine has a string
name and at least one state, its states and tables are tuples, its labels
strings, each weight prints as digits[/digits] (at most 32 digits each),
every distribution names each successor once and sums to exactly 1, and every
positive-probability successor assigns the measured input the same output
as the current state (value preservation).  These are the file reader's
rules, so a machine always reads back equal from its own `to_json()`.
A transition row may also be empty, marking a deliberately partial
machine such as the four-state diagram fixture.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from typing import Callable, ClassVar, Iterable, NamedTuple, Sequence

from . import pauli

TransitionRow = tuple[tuple[int, Fraction], ...]

# The form `to_json_dict` writes a weight in, with a bounded length, so
# reading a file never hands `Fraction` an exponent or a huge numeral.
# The constructor holds every weight to it too.
_PROB = re.compile(r"([0-9]{1,32})(?:/([0-9]{1,32}))?")


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


def _parse_row(
    entries: object, index: dict[str, int], weights: dict[str, Fraction]
) -> TransitionRow:
    # `weights` maps each weight text read so far to its one Fraction, which
    # the constructor then checks once; a non-string raises before it is stored.
    if not isinstance(entries, list):
        raise ValueError(f"transition row is not a list: {entries!r:.40}")
    row = []
    for to, prob in (_keyed(e, ("to", "prob"), "transition entry") for e in entries):
        if not isinstance(to, str) or to not in index:
            raise ValueError(f"transition to an unknown state: {to!r:.40}")
        if not isinstance(prob, str) or prob not in weights:
            weights[prob] = _parse_prob(prob)
        row.append((index[to], weights[prob]))
    return tuple(row)


def _tuples(table: object, k: int) -> bool:
    # A tuple of tuples of k entries each.
    return isinstance(table, tuple) and all(isinstance(r, tuple) and len(r) == k for r in table)


@functools.cache
def _uniform_weight(k: int) -> Fraction:
    # One object per row length, so a machine's constructor checks it once.
    return Fraction(1, k)


def uniform_row(successors: Iterable[int]) -> TransitionRow:
    succ = tuple(successors)
    if not succ:
        return ()
    p = _uniform_weight(len(succ))
    return tuple((t, p) for t in succ)


def deterministic_row(successor: int) -> TransitionRow:
    return ((successor, _uniform_weight(1)),)


class _MachineFields(NamedTuple):
    name: str
    states: tuple[str, ...]
    outputs: tuple[tuple[int, ...], ...]
    transitions: tuple[tuple[TransitionRow, ...], ...]
    notes: tuple[str, ...] = ()


class MealyMachine(_MachineFields):
    __slots__ = ()
    inputs: ClassVar[tuple[str, ...]] = pauli.OBSERVABLE_NAMES

    def __new__(cls, *args: object, **kwargs: object) -> MealyMachine:
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.name, str):
            raise ValueError(f"machine name is not a string: {self.name!r:.40}")
        if not isinstance(self.states, tuple) or not all(isinstance(x, str) for x in self.states):
            raise ValueError(f"machine states must be a tuple of strings: {self.states!r:.40}")
        n, k = len(self.states), len(self.inputs)
        if n == 0:
            raise ValueError("machine has no states")
        if len(set(self.states)) != n:
            raise ValueError("duplicate state labels")
        # Tuples all the way down, as the file reader builds them: a list
        # would read back from `to_json()` as an unequal tuple.
        for what, table in (("output", self.outputs), ("transition", self.transitions)):
            if not _tuples(table, k) or len(table) != n:
                raise ValueError(f"{what} table is not a tuple of one 9-tuple per state")
        # Each weight object is checked once: by identity, since equal values
        # such as Fraction(1, 2) and 0.5, or 1 and True, are not both weights.
        # It maps to the numerator and denominator it prints as.
        weights: dict[int, tuple[int, int]] = {}
        for s in range(n):
            for i in range(k):
                _parse_output(self.outputs[s][i])
                row = self.transitions[s][i]
                if not _tuples(row, 2):
                    raise ValueError(f"transition row is not a tuple of pairs: {row!r:.40}")
                if not row:
                    continue
                if len({t for t, _ in row}) != len(row):
                    raise ValueError(
                        f"repeated successor at ({self.states[s]},{self.inputs[i]})"
                    )
                fractions = []
                for t, p in row:
                    w = weights.get(id(p))
                    if w is None:
                        # A string may print as digits too, but it is not a weight.
                        form = None if isinstance(p, str) else _PROB.fullmatch(str(p))
                        if form is None:
                            raise ValueError(f"transition prob is not digits[/digits]: {p!r:.40}")
                        if p <= 0:
                            raise ValueError("non-positive transition weight")
                        w = weights[id(p)] = (int(form[1]), int(form[2] or 1))
                    fractions.append(w)
                    if type(t) is not int or not 0 <= t < n:
                        raise ValueError(f"successor is not a state index: {t!r:.40}")
                    if self.outputs[t][i] != self.outputs[s][i]:
                        raise ValueError(
                            "value preservation violated at "
                            f"({self.states[s]},{self.inputs[i]})->{self.states[t]}"
                        )
                # The exact sum, over a common denominator.
                den = math.lcm(*(d for _, d in fractions))
                total = sum(num * (den // d) for num, d in fractions)
                if total != den:
                    raise ValueError(
                        f"distribution at ({self.states[s]},{self.inputs[i]}) "
                        f"sums to {Fraction(total, den)}"
                    )
        return self

    # `_replace` builds through `_make`, so it runs the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    # Equal and hashed by all fields but `notes`; never equal to a plain tuple.
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])

    # `type` rather than `isinstance` for indices too: a bool is not one.
    def state_index(self, state: int | str) -> int:
        if type(state) is int:
            if not 0 <= state < len(self.states):
                raise ValueError(f"state index out of range: {state}")
            return state
        try:
            return self.states.index(state)
        except ValueError:
            raise ValueError(f"unknown state label: {state!r}") from None

    def input_index(self, inp: int | str) -> int:
        if type(inp) is int:
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
        inputs = _parse_labels(data, "inputs")
        if sorted(inputs) != sorted(cls.inputs):
            raise ValueError(
                f"machine inputs must be the nine PM observables, each once: {list(inputs)!r:.200}"
            )
        states = _parse_labels(data, "states")
        index = {label: i for i, label in enumerate(states)}
        outputs = _table(data, "outputs", states, _parse_output)
        weights: dict[str, Fraction] = {}
        transitions = _table(data, "transitions", states, lambda r: _parse_row(r, index, weights))
        return cls(data["name"], states, outputs, transitions)

    @classmethod
    def from_json(cls, text: str) -> "MealyMachine":
        return cls.from_json_dict(json.loads(text))


def step(
    m: MealyMachine, state: int | str, inp: int | str, rng: random.Random
) -> tuple[int, int]:
    """One machine step: emit the output and sample the successor.

    Returns (output, next state index).  One `rng.random()` draw r picks
    the first successor whose cumulative weight exceeds r, compared
    exactly in integers over the row's common denominator; the weights
    stay exact `Fraction`s.  With a seeded rng, runs replay identically.
    """
    s, i = m.state_index(state), m.input_index(inp)
    row = m.transitions[s][i]
    if not row:
        raise ValueError(
            f"no transition defined at ({m.states[s]}, {m.inputs[i]})"
        )
    out = m.outputs[s][i]
    # r = a / b exactly, and the running sum is acc / den, so `r < sum`,
    # which Fraction compares exactly, is `a * den < acc * b` in integers.
    a, b = rng.random().as_integer_ratio()
    den = math.lcm(*(p.denominator for _, p in row))
    acc = 0
    for t, p in row:
        acc += p.numerator * (den // p.denominator)
        if a * den < acc * b:
            return out, t
    return out, row[-1][0]


class _TranscriptFields(NamedTuple):
    inputs: tuple[str, ...]
    outputs: tuple[int, ...]
    probability: Fraction
    end_state: str


class Transcript(_TranscriptFields):
    """One positive-probability run: inputs, outputs, weight, final state."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> Transcript:
        self = super().__new__(cls, *args, **kwargs)
        # Only what a machine emits: tuples (so a transcript hashes), outputs
        # the integer 1 or -1, and an exact positive weight.
        if not isinstance(self.inputs, tuple) or not isinstance(self.outputs, tuple):
            raise ValueError("transcript inputs and outputs must be tuples")
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs/outputs length mismatch")
        for v in self.outputs:
            if type(v) is not int or v not in (1, -1):
                raise ValueError(f"not a +/-1 outcome: {v!r}")
        p = self.probability
        if type(p) is not Fraction or p.numerator <= 0:
            raise ValueError("transcript probability must be a positive Fraction")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def enumerate_transcripts(
    m: MealyMachine, start: int | str, seq: Iterable[str]
) -> tuple[Transcript, ...]:
    """All positive-probability output/state paths for an input sequence.

    One forward pass over the inputs merges paths with equal outputs and
    state at every step, so run length has no limit.  The last output needs
    no transition: an undefined row there ends the run in its state.  On a
    partial machine, branches that hit an undefined transition earlier are
    dropped, so the probabilities may sum to less than 1; on total machines
    they sum to exactly 1.  Sorted by outputs, then end state index.

    Weights are exact integers: at each step, the rows of the states the
    runs are in are put over their common denominator, each run's integer
    weight is multiplied by its successor's numerator over it, and the
    running denominator by it.  Each transcript holds one reduced
    `Fraction`, built at the end; its `inputs` are the observable names,
    one tuple shared by every transcript.
    """
    s0 = m.state_index(start)
    idx_seq = [m.input_index(o) for o in seq]
    inputs = tuple(m.inputs[i] for i in idx_seq)
    # Each run's weight is an integer over the shared denominator `den`.
    runs: dict[tuple[tuple[int, ...], int], int] = {((), s0): 1}
    den = 1
    for pos, i in enumerate(idx_seq, 1):
        last = pos == len(idx_seq)
        rows = {
            s: m.transitions[s][i] or (deterministic_row(s) if last else ()) for _, s in runs
        }
        # This step's weights, as integers over their common denominator d.
        d = math.lcm(*(p.denominator for row in rows.values() for _, p in row))
        moves = {
            s: [(t, p.numerator * (d // p.denominator)) for t, p in row] for s, row in rows.items()
        }
        advanced: dict[tuple[tuple[int, ...], int], int] = {}
        for (outputs, s), w in runs.items():
            outputs += (m.outputs[s][i],)
            for t, q in moves[s]:
                advanced[outputs, t] = advanced.get((outputs, t), 0) + w * q
        runs = advanced
        den *= d
    return tuple(
        Transcript(inputs, outputs, Fraction(w, den), m.states[s])
        for (outputs, s), w in sorted(runs.items())
    )
