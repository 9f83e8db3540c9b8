"""Mealy machine engine: stepping, enumeration, validation, JSON round-trips."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtoy import pauli
from pmtoy.extension import (
    VARIANT_TRIGGERS,
    extended_machine,
    four_state_machine,
    variant_machine,
)
from pmtoy.machine import (
    MealyMachine,
    Transcript,
    deterministic_row,
    enumerate_transcripts,
    step,
    uniform_row,
)
from pmtoy.toy import spekkens_machine
from pmtoy.verify import FAMILIES


def _tiny_machine(**overrides):
    base = dict(
        name="tiny",
        states=("p", "q"),
        outputs=(tuple([+1] * 9), tuple([+1] * 9)),
        transitions=(
            tuple(uniform_row([0, 1]) for _ in range(9)),
            tuple(deterministic_row(1) for _ in range(9)),
        ),
    )
    base.update(overrides)
    return MealyMachine(**base)


def test_row_helpers():
    assert deterministic_row(3) == ((3, Fraction(1)),)
    assert uniform_row([0, 1]) == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
    assert uniform_row([]) == ()


def test_validation_rejects_bad_distribution():
    with pytest.raises(ValueError, match="sums to"):
        _tiny_machine(
            transitions=(
                tuple(((0, Fraction(1, 2)),) for _ in range(9)),
                tuple(deterministic_row(1) for _ in range(9)),
            )
        )


def test_validation_rejects_value_preservation_breach():
    with pytest.raises(ValueError, match="value preservation"):
        _tiny_machine(outputs=(tuple([+1] * 9), tuple([-1] * 9)))


def test_validation_rejects_bad_output():
    with pytest.raises(ValueError, match=r"not \+/-1"):
        _tiny_machine(outputs=(tuple([0] * 9), tuple([+1] * 9)))


@pytest.mark.parametrize("value", [True, 1.0, Fraction(1)])
def test_validation_rejects_an_output_the_file_reader_refuses(value):
    # Accepted, to_json() wrote `true` or `1.0`, which from_json refused.
    with pytest.raises(ValueError, match=r"not \+/-1"):
        _tiny_machine(outputs=((value,) + (+1,) * 8, (+1,) * 9))


def _weights(*pairs):
    return (tuple(pairs for _ in range(9)), tuple(deterministic_row(1) for _ in range(9)))


UNREADABLE_BUILDS = {
    "state-not-a-string": (dict(states=(0, 1)), "states must be a tuple of strings"),
    "states-a-list": (dict(states=["p", "q"]), "states must be a tuple of strings"),
    "name-none": (dict(name=None), "name is not a string"),
    "weight-float": (dict(transitions=_weights((0, 0.5), (1, 0.5))), "not digits"),
    "weight-bool": (dict(transitions=_weights((0, True))), "not digits"),
    "weight-33-digits": (
        dict(transitions=_weights((0, Fraction(1, 10**32)), (1, 1 - Fraction(1, 10**32)))),
        "not digits",
    ),
    "outputs-a-list": (dict(outputs=[(+1,) * 9, (+1,) * 9]), "output table is not a tuple"),
    "output-row-a-list": (dict(outputs=([+1] * 9, (+1,) * 9)), "output table is not a tuple"),
    "transitions-a-list": (
        dict(transitions=list(_tiny_machine().transitions)),
        "transition table is not a tuple",
    ),
    "transition-table-row-a-list": (
        dict(transitions=([deterministic_row(0)] * 9, (deterministic_row(1),) * 9)),
        "transition table is not a tuple",
    ),
    "transition-row-a-list": (
        dict(transitions=((list(deterministic_row(0)),) * 9, (deterministic_row(1),) * 9)),
        "transition row is not a tuple",
    ),
    "transition-entry-a-list": (
        dict(transitions=_weights([0, Fraction(1)])),
        "transition row is not a tuple",
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_BUILDS))
def test_validation_rejects_a_machine_its_own_file_would_not_read_back(case):
    # Accepted, from_json(m.to_json()) refused it or read back an unequal machine.
    overrides, message = UNREADABLE_BUILDS[case]
    with pytest.raises(ValueError, match=message):
        _tiny_machine(**overrides)


@pytest.mark.parametrize(
    "accepted, refused",
    [(Fraction(1), True), (1, True), (Fraction(1, 2), 0.5)],
    ids=["fraction-then-bool", "int-then-bool", "half-then-float"],
)
def test_validation_checks_a_weight_equal_to_one_already_accepted(accepted, refused):
    # Each pair compares and hashes equal, so a check remembered by value
    # would let the refused weight through after the accepted one.
    def row(p):
        return ((0, p),) if p == 1 else ((0, p), (1, p))

    first = (row(accepted),) * 8 + (row(refused),)
    with pytest.raises(ValueError, match="not digits"):
        _tiny_machine(transitions=(first, tuple(deterministic_row(1) for _ in range(9))))


@pytest.mark.parametrize(
    "weights, total",
    [((Fraction(1, 3), Fraction(1, 2)), "5/6"), ((1, 1), "2"), ((Fraction(1, 6),) * 2, "1/3")],
)
def test_validation_reports_the_exact_sum(weights, total):
    row = tuple(enumerate(weights))
    with pytest.raises(ValueError, match=f"^distribution at \\(p,Z1\\) sums to {total}$"):
        _tiny_machine(transitions=((row,) * 9, tuple(deterministic_row(1) for _ in range(9))))


@pytest.mark.parametrize(
    "weights, message",
    [
        (((0, "1"),), "not digits"),
        (((0, "1/2"), (1, "1/2")), "not digits"),
        ((("0", Fraction(1)),), "not a state index"),
        (((0.0, Fraction(1)),), "not a state index"),
    ],
    ids=["weight-1", "weights-1/2", "successor-str", "successor-float"],
)
def test_validation_raises_value_error_for_a_string_or_float_entry(weights, message):
    # A TypeError from summing the weights before their form was checked,
    # from comparing a string successor with the state count, or from
    # indexing the output table with a float one.
    with pytest.raises(ValueError, match=message):
        _tiny_machine(transitions=_weights(*weights))


def test_validation_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        _tiny_machine(states=("p", "p"))


def test_validation_rejects_a_machine_with_no_states():
    # Accepted, it would pass every check vacuously: no state, no run.
    with pytest.raises(ValueError, match="no states"):
        MealyMachine("empty", (), (), ())
    data = {
        "name": "empty",
        "inputs": list(pauli.OBSERVABLE_NAMES),
        "states": [],
        "outputs": {},
        "transitions": {},
    }
    with pytest.raises(ValueError, match="no states"):
        MealyMachine.from_json_dict(data)


def test_validation_rejects_a_repeated_successor():
    # Accepted, search_machines counted the one deterministic sub-machine
    # once per copy of the successor: 2^9 completions.
    half = ((0, Fraction(1, 2)), (0, Fraction(1, 2)))
    with pytest.raises(ValueError, match="repeated successor"):
        MealyMachine("twice", ("p",), ((+1,) * 9,), ((half,) * 9,))
    data = _tiny_machine().to_json_dict()
    data["transitions"]["p"]["Z1"] = [{"to": "q", "prob": "1/2"}, {"to": "q", "prob": "1/2"}]
    with pytest.raises(ValueError, match=r"repeated successor at \(p,Z1\)"):
        MealyMachine.from_json_dict(data)


def test_state_and_input_lookup_errors():
    m = _tiny_machine()
    with pytest.raises(ValueError):
        m.state_index("nope")
    with pytest.raises(ValueError):
        m.input_index("Y1")
    assert m.state_index(1) == 1
    assert m.input_index("Z1") == 0


BOOL_INDEX_CALLS = {
    "step-state": lambda m: step(m, True, 0, random.Random(0)),
    "step-input": lambda m: step(m, 0, False, random.Random(0)),
    "enumerate-start": lambda m: enumerate_transcripts(m, True, ["Z1"]),
    "enumerate-input": lambda m: enumerate_transcripts(m, 0, [False]),
    "successors": lambda m: m.successors(True, 0),
    "output": lambda m: m.output(0, False),
}


@pytest.mark.parametrize("call", sorted(BOOL_INDEX_CALLS))
def test_a_bool_is_not_a_state_or_input_index(call):
    # Accepted, True ran as state 1 and False as input Z1.
    with pytest.raises(ValueError, match="unknown"):
        BOOL_INDEX_CALLS[call](spekkens_machine())


def test_step_replays_identically_with_same_seed():
    m = spekkens_machine()
    seq = ["Z1", "X1X2", "Z1X2", "Y1Y2", "Z2"] * 3
    runs = []
    for _ in range(2):
        rng = random.Random(20260810)
        s = m.state_index("++++")
        trace = []
        for obs in seq:
            out, s = step(m, s, obs, rng)
            trace.append((out, s))
        runs.append(trace)
    assert runs[0] == runs[1]


def test_step_on_undefined_transition_raises():
    m = four_state_machine()
    with pytest.raises(ValueError, match="no transition"):
        step(m, "a", "Z1", random.Random(0))


def test_deterministic_machine_has_single_transcript():
    m = extended_machine(False)
    ts = enumerate_transcripts(m, "++++/col", ["Z1Z2", "X1X2", "Y1Y2"])
    assert len(ts) == 1
    assert ts[0].probability == 1
    assert ts[0].outputs[0] * ts[0].outputs[1] * ts[0].outputs[2] == -1


def test_empty_sequence_gives_identity_transcript():
    m = spekkens_machine()
    ts = enumerate_transcripts(m, "++++", [])
    assert ts == (Transcript((), (), Fraction(1), "++++"),)


@pytest.mark.parametrize(
    "inputs, outputs, probability, message",
    [
        (["Z1"], (1,), Fraction(1), "must be tuples"),
        (("Z1",), [1], Fraction(1), "must be tuples"),
        (("Z1",), (5,), Fraction(1), r"not a \+/-1 outcome: 5"),
        (("Z1", "X1"), (1, True), Fraction(1), r"not a \+/-1 outcome: True"),
        (("Z1",), (-1.0,), Fraction(1), r"not a \+/-1 outcome: -1.0"),
        (("Z1",), (1,), 0.5, "positive Fraction"),
        (("Z1",), (1,), 1, "positive Fraction"),
        (("Z1",), (1,), Fraction(0), "positive Fraction"),
        (("Z1",), (1,), Fraction(-1, 2), "positive Fraction"),
    ],
    ids=[
        "inputs-list", "outputs-list", "output-5", "output-bool", "output-float",
        "weight-float", "weight-int", "weight-zero", "weight-negative",
    ],
)
def test_transcript_holds_only_what_a_machine_emits(inputs, outputs, probability, message):
    # Accepted, a list made a frozen transcript unhashable.
    with pytest.raises(ValueError, match=message):
        Transcript(inputs, outputs, probability, "e")


def test_spekkens_first_output_constant_across_branches():
    m = spekkens_machine()
    ts = enumerate_transcripts(m, "++++", ["Z1", "Y1Y2"])
    assert len(ts) >= 2
    assert all(t.outputs[0] == +1 for t in ts)


def test_transcripts_merge_by_outputs_and_end_state():
    m = spekkens_machine()
    ts = enumerate_transcripts(m, "++++", ["Z1", "Z1", "Z1"])
    # Outputs are all +1 in every branch; merging leaves one transcript
    # per reachable end state, weights summed.
    assert all(t.outputs == (1, 1, 1) for t in ts)
    keys = [(t.outputs, t.end_state) for t in ts]
    assert len(keys) == len(set(keys))
    assert sum(t.probability for t in ts) == 1


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=15),
    seq=st.lists(st.sampled_from(pauli.OBSERVABLE_NAMES), min_size=1, max_size=4),
)
def test_branch_probabilities_sum_to_one(start, seq):
    m = spekkens_machine()
    ts = enumerate_transcripts(m, start, seq)
    assert sum(t.probability for t in ts) == 1
    assert all(t.probability > 0 for t in ts)


def test_partial_machine_transcripts_drop_dead_branches():
    m = four_state_machine()
    # From a, Z1Z2 is drawn but the successor b has no Z1Z2 edge.
    ts = enumerate_transcripts(m, "a", ["Z1Z2", "Z1Z2", "Z1Z2"])
    assert ts == ()
    ts = enumerate_transcripts(m, "a", ["Z1Z2", "X1Z2"])
    assert len(ts) == 1
    assert ts[0].end_state == "a"


def test_enumeration_reads_a_one_pass_sequence_once():
    # A generator was read for the indices and again, empty, per transcript.
    m = spekkens_machine()
    ts = enumerate_transcripts(m, 0, (x for x in ["Z1", "X1"]))
    assert ts == enumerate_transcripts(m, 0, ("Z1", "X1"))
    assert all(t.inputs is ts[0].inputs for t in ts)


def _reference_transcripts(m, start, seq):
    # Literal reference: every path of m from start, one call per path, with
    # equal (outputs, end state) merged only at the end of each path.
    merged = {}

    def walk(s, pos, outputs, prob):
        if pos == len(seq):
            merged[outputs, s] = merged.get((outputs, s), Fraction(0)) + prob
            return
        i = m.input_index(seq[pos])
        row = m.transitions[s][i]
        if not row and pos == len(seq) - 1:
            row = ((s, Fraction(1)),)  # the last output needs no transition
        for t, p in row:
            walk(t, pos + 1, outputs + (m.outputs[s][i],), prob * p)

    walk(m.state_index(start), 0, (), Fraction(1))
    return tuple(
        Transcript(tuple(seq), outputs, merged[outputs, s], m.states[s])
        for outputs, s in sorted(merged)
    )


def _random_partial_machine(seed, n=6):
    # Value-preserving, stochastic with unequal weights, and partial.
    rng = random.Random(seed)
    inputs = pauli.OBSERVABLE_NAMES
    outputs = tuple(tuple(rng.choice((1, -1)) for _ in inputs) for _ in range(n))
    transitions = []
    for s in range(n):
        row = []
        for i in range(len(inputs)):
            domain = [t for t in range(n) if outputs[t][i] == outputs[s][i]]
            if rng.random() < 0.25:
                row.append(())
                continue
            succ = rng.sample(domain, rng.randint(1, len(domain)))
            weights = [rng.randint(1, 5) for _ in succ]
            row.append(tuple((t, Fraction(w, sum(weights))) for t, w in zip(succ, weights)))
        transitions.append(tuple(row))
    return MealyMachine(
        f"random-partial-{seed}", tuple(f"r{s}" for s in range(n)), outputs, tuple(transitions)
    )


REFERENCE_MACHINES = {
    "spekkens16": spekkens_machine,
    "extended32": extended_machine,
    "extended32-randomized": lambda: extended_machine(randomized=True),
    "paper4": four_state_machine,
    **{f"variant-{kind}": lambda kind=kind: variant_machine(kind) for kind in VARIANT_TRIGGERS},
    **{f"family-{name}": build for name, build in FAMILIES.items()},
    **{f"random-partial-{seed}": lambda seed=seed: _random_partial_machine(seed) for seed in range(3)},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MACHINES))
def test_enumeration_matches_the_path_by_path_reference(name):
    m = REFERENCE_MACHINES[name]()
    n = len(m.states)
    calls = [
        (start, seq)
        for start in (0, n - 1)
        for length in range(4)
        for seq in itertools.product(m.inputs, repeat=length)
    ]
    rng = random.Random(name)
    width = max(len(row) for srow in m.transitions for row in srow)
    for _ in range(20):
        length = rng.randint(4, 8)
        # Lengths shrink until the reference lists at most 20 000 paths.
        while width**length > 20_000:
            length -= 1
        calls.append((rng.randrange(n), [rng.choice(m.inputs) for _ in range(length)]))
    for start, seq in calls:
        got = enumerate_transcripts(m, start, seq)
        assert got == _reference_transcripts(m, start, seq), (start, seq)
        assert all(type(t.probability) is Fraction for t in got)


def _reference_step(m, s, i, r):
    # The draw `step` replaced, kept as its reference: the first successor
    # whose running Fraction sum exceeds the float r, compared exactly.
    row = m.transitions[s][i]
    acc = Fraction(0)
    for t, p in row:
        acc += p
        if r < acc:
            return m.outputs[s][i], t
    return m.outputs[s][i], row[-1][0]


class _FixedRandom:
    # Returns r on every draw and counts the draws.
    def __init__(self, r):
        self.r, self.calls = r, 0

    def random(self):
        self.calls += 1
        return self.r


@pytest.mark.parametrize("name", sorted(REFERENCE_MACHINES))
def test_step_draws_what_the_fraction_loop_draws(name):
    m = REFERENCE_MACHINES[name]()
    seeded = random.Random(name)
    for s, srow in enumerate(m.transitions):
        for i, row in enumerate(srow):
            if not row:
                continue
            draws = [0.0, 1 - 2**-53] + [seeded.random() for _ in range(4)]
            acc = Fraction(0)
            for _, p in row:
                acc += p
                # A float above or below the boundary, and one ulp lower.
                draws += [float(acc), math.nextafter(float(acc), 0)]
            for r in draws:
                rng = _FixedRandom(r)
                assert step(m, s, i, rng) == _reference_step(m, s, i, r), (s, i, r)
                assert rng.calls == 1, "one draw per step, one-successor rows too"


# sha256 of to_json() for every builtin, variant and family, recorded at
# `b1a62b6`: a change to a state order, an output, a coset order or a
# transition weight changes one of them.
GOLDEN_MACHINE_JSON = {
    "spekkens16": "32f7a3e37e4d908be431993c092997647124b59105c277904ac7fd5f6bf55677",
    "extended32": "9a06a4c77dc892cd589aeeef9c619f3e50632d80909608d0fbefa583f2509ad6",
    "extended32-randomized": "a5a884d540fa3b1faa93a40f3e506bfdd2f6b7dc569011ec8e8cea12033799ff",
    "paper4": "9d02fdb27118bbb788b7c5a2acb0728dd843c5a28dae9258e266ba62c837bd21",
    "variant-single_trigger": "d10ca52cab4c2bff4aa15feb10a45b23e4cf59e5e256618753f68dc12f2b04ac",
    "variant-same_destination": "636b2a5a9142d745cfa0bffb200565efd71e57b6bc8ed82661f344da004bb43d",
    "family-paper4": "7376a793a30f52d543bdca738b7ba738126f6dcc51935b25fe141849040b5440",
    "family-cplus16": "4a4359d244a546b3542413f2475feeba8b5e9b7072671e2ce6d0d210a9764d95",
    "family-all32-bit2": "83173e78b622ab523eb4ae13e65177b3df0710e0ab57a0583dd2ec8618bd707c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MACHINE_JSON))
def test_machine_json_matches_golden_hash(name):
    text = REFERENCE_MACHINES[name]().to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MACHINE_JSON[name]


def test_a_long_deterministic_run_is_one_transcript():
    m = extended_machine()
    ts = enumerate_transcripts(m, 0, ["Z1Z2", "X1X2", "Y1Y2"] * 1000)
    assert len(ts) == 1
    assert ts[0].probability == 1
    assert len(ts[0].outputs) == 3000


@pytest.mark.parametrize(
    "build",
    [spekkens_machine, lambda: extended_machine(False), lambda: extended_machine(True), four_state_machine],
)
def test_json_round_trip(build):
    m = build()
    again = MealyMachine.from_json(m.to_json())
    assert again == m
    assert again.to_json() == m.to_json()


def test_json_is_canonical():
    m = spekkens_machine()
    assert m.to_json() == spekkens_machine().to_json()
    assert '"name"' in m.to_json()


@pytest.mark.parametrize(
    "key, value",
    [
        ("states", "abcd"),
        ("states", {"a": 0, "b": 1, "c": 2, "d": 3}),
        ("inputs", ["Z1", 2] + list(four_state_machine().inputs[2:])),
    ],
    ids=["states-string", "states-object", "inputs-with-an-int"],
)
def test_from_json_dict_reads_labels_only_as_lists_of_strings(key, value):
    data = four_state_machine().to_json_dict()
    data[key] = value
    with pytest.raises(ValueError, match=f"machine {key} must be a list of strings"):
        MealyMachine.from_json_dict(data)


def _drop_input(data, name):
    data["inputs"].remove(name)
    for table in ("outputs", "transitions"):
        for row in data[table].values():
            del row[name]


FOREIGN_EDITS = {
    "name-not-a-string": lambda d: d.update(name=[1, {"x": None}]),
    "no-name": lambda d: d.pop("name"),
    "extra-top-level-key": lambda d: d.update(extra=1),
    "outputs-row-for-an-unknown-state": lambda d: d["outputs"].update(zz=d["outputs"]["a"]),
    "transitions-row-missing-an-input": lambda d: d["transitions"]["a"].pop("Z1"),
    "transition-row-not-a-list": lambda d: d["transitions"]["a"].update(Z1=""),
    "entry-with-an-extra-key": lambda d: d["transitions"]["a"]["Z1Z2"][0].update(x=1),
    "entry-to-an-unknown-state": lambda d: d["transitions"]["a"]["Z1Z2"][0].update(to="zz"),
    "entry-to-a-list": lambda d: d["transitions"]["a"]["Z1Z2"][0].update(to=["a"]),
    # Files that agree with themselves but not with the nine observables.
    "input-renamed-everywhere": lambda d: d.update(json.loads(json.dumps(d).replace('"Z1X2"', '"Q7"'))),
    "input-dropped-everywhere": lambda d: _drop_input(d, "X1"),
}


def test_from_json_dict_refuses_a_zero_denominator():
    data = four_state_machine().to_json_dict()
    for prob in ("1/0", "0/00"):
        data["transitions"]["a"]["Z1Z2"][0]["prob"] = prob
        with pytest.raises(ValueError, match="zero denominator"):
            MealyMachine.from_json_dict(data)


def test_inputs_are_the_nine_observables_for_every_machine():
    assert MealyMachine.inputs == pauli.OBSERVABLE_NAMES
    assert _tiny_machine().inputs == pauli.OBSERVABLE_NAMES
    with pytest.raises(TypeError):
        _tiny_machine(inputs=pauli.OBSERVABLE_NAMES)


@pytest.mark.parametrize("edit", sorted(FOREIGN_EDITS))
def test_from_json_dict_reads_only_what_to_json_dict_writes(edit):
    data = json.loads(four_state_machine().to_json())
    FOREIGN_EDITS[edit](data)
    with pytest.raises(ValueError):
        MealyMachine.from_json_dict(data)
