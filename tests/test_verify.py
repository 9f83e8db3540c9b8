"""Transcript constraints, exhaustive verification, refutations, and search."""

import collections
import decimal
import itertools
import json
import time
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lueders import lueders_runs
from pmtoy import pauli
from pmtoy.cli import main
from pmtoy.extension import extended_machine, four_state_machine, variant_machine
from pmtoy.machine import (
    MealyMachine,
    Transcript,
    deterministic_row,
    enumerate_transcripts,
    uniform_row,
)
from pmtoy.pauli import knowledge_runs
from pmtoy.toy import ontic_machine, spekkens_machine
from pmtoy.verify import (
    CONTEXT_PRODUCT,
    REPEATABILITY,
    VerificationReport,
    Violation,
    check_transcript,
    family_all32_bit2,
    family_cplus16,
    family_paper4,
    refute_variant,
    _BREACH,
    _check_run,
    _code,
    _CODES,
    _compiled,
    _KEEP,
    _NAMES,
    _THIRD,
    search_machines,
    verify_machine,
)

COL3 = set(pauli.CONTEXT_NAMES["col3"])


def _t(inputs, outputs):
    return Transcript(tuple(inputs), tuple(outputs), Fraction(1), "end")


def test_check_transcript_context_violation():
    vs = check_transcript(_t(["Z1Z2", "X1X2", "Y1Y2"], [+1, +1, +1]))
    assert len(vs) == 1
    v = vs[0]
    assert v.kind == CONTEXT_PRODUCT
    assert v.positions == (0, 1, 2)
    assert (v.expected, v.observed) == (-1, +1)


def test_check_transcript_repeatability_satisfied():
    assert check_transcript(_t(["Z1", "Z1"], [+1, +1])) == []


def test_check_transcript_repeatability_violation_across_compatible():
    vs = check_transcript(_t(["X1X2", "Y1Y2", "X1X2"], [-1, +1, +1]))
    assert "Y1Y2" in pauli.COMMUTING["X1X2"]
    assert len(vs) == 1
    v = vs[0]
    assert v.kind == REPEATABILITY
    assert v.positions == (0, 2)
    assert (v.expected, v.observed) == (-1, +1)


def test_check_transcript_incompatible_interleaving_breaks_the_chain():
    # Z1 does not commute with X1X2, so the pair is not constrained.
    assert "Z1" not in pauli.COMMUTING["X1X2"]
    assert check_transcript(_t(["X1X2", "Z1", "X1X2"], [-1, +1, +1])) == []


def test_check_transcript_rejects_names_outside_the_square():
    for inputs in (("Q", "R", "Q"), ("Q", "Q")):
        with pytest.raises(ValueError, match="not a PM observable: 'Q'"):
            check_transcript(_t(inputs, [+1, -1, +1][: len(inputs)]))


def test_check_transcript_rejects_outputs_other_than_plus_minus_one():
    for inputs, outputs, bad in (
        (("Z1", "X1"), (5, 0), 5),
        (("Z1", "Z1"), (7, 7), 7),
        (("Z1", "Z1"), (1, 0), 0),
    ):
        with pytest.raises(ValueError, match=f"not a \\+/-1 outcome: {bad}"):
            check_transcript(_t(inputs, outputs))


def test_gate_passes_an_interleaved_context_the_exact_oracle_forbids():
    # Z1 commutes with Z1Z2, so the Z1Z2 outcome is still in force when
    # X1X2 and Y1Y2 complete column 3 with product +1; no three
    # consecutive steps form the context, so the gate sees nothing.
    seq = ("Z1Z2", "Z1", "X1X2", "Y1Y2")
    assert check_transcript(_t(seq, [+1, +1, +1, +1])) == []
    assert knowledge_runs(seq).get((+1, +1, +1, +1), 0) == 0


def test_gate_passes_a_run_quantum_mechanics_forbids():
    # (R)+(C) is necessary for the quantum predictions, not sufficient.
    seq = ("Z1", "Z2", "X1X2", "Z1Z2")
    witness = (+1, +1, +1, -1)
    runs = {t.outputs: t for t in enumerate_transcripts(extended_machine(), "++++/col", seq)}
    assert runs[witness].probability > 0
    assert check_transcript(runs[witness]) == []
    assert knowledge_runs(seq).get(witness, 0) == 0
    qm = lueders_runs(seq)
    assert witness not in qm
    assert sum(qm.values()) == 1.0


def test_sequences_checked_closed_form():
    for depth in range(1, 8):
        report = verify_machine(four_state_machine(), depth)
        assert report.sequences_checked == 4 * sum(9**d for d in range(1, depth + 1))


def test_report_renders_counts_past_the_int_digit_limit():
    def rendered(n):
        report = VerificationReport("m", 1, n, (), 0.0)
        return json.loads(report.to_json())["sequences_checked"]

    assert rendered(10**4300 - 1) == 10**4300 - 1
    big = 10**4300 + 12345
    assert isinstance(rendered(big), str)
    assert decimal.Decimal(rendered(big)) == big


def test_verify_spekkens_finds_column3_violation():
    report = verify_machine(spekkens_machine(), 3)
    assert not report.passed
    assert report.sequences_checked == 16 * (9 + 81 + 729)
    v = report.violations[0]
    assert v.kind == CONTEXT_PRODUCT
    assert set(v.sequence) == COL3 and len(v.sequence) == 3
    assert v.observed == +1 and v.expected == -1


def test_verify_extended_passes_through_depth_four():
    m = extended_machine(False)
    for depth in (1, 2, 3, 4):
        assert verify_machine(m, depth).passed


def test_verify_is_monotone_in_depth():
    m = spekkens_machine()
    shallow = verify_machine(m, 2)
    assert shallow.passed  # no violation exists below depth 3
    deep = verify_machine(m, 4)
    assert not deep.passed
    assert min(len(v.sequence) for v in deep.violations) == 3


@pytest.mark.parametrize(
    "build, depth",
    [
        (spekkens_machine, 3),
        (lambda: variant_machine("single_trigger"), 4),
        (lambda: variant_machine("same_destination"), 4),
    ],
    ids=["spekkens16-depth3", "single_trigger-depth4", "same_destination-depth4"],
)
def test_violations_are_replayable(build, depth):
    # From every start, so witnesses lead back to several start keys.
    m = build()
    report = verify_machine(m, depth)
    assert report.violations
    for v in report.violations:
        transcripts = enumerate_transcripts(m, v.start, v.sequence)
        reproduced = [
            t
            for t in transcripts
            if t.outputs == v.outputs
            and any(
                w.kind == v.kind and w.positions == v.positions
                for w in check_transcript(t, v.start)
            )
        ]
        assert reproduced, v


def test_verify_rejects_bad_arguments():
    m = spekkens_machine()
    with pytest.raises(ValueError):
        verify_machine(m, 0)


def test_verify_partial_machine_skips_undefined_continuations():
    report = verify_machine(four_state_machine(), 2)
    assert report.passed
    assert any("label discrepancy" in n for n in report.notes)


def test_verify_randomized_extension_at_depth_three():
    assert verify_machine(extended_machine(True), 3).passed


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=31),
    seq=st.lists(st.sampled_from(pauli.OBSERVABLE_NAMES), min_size=1, max_size=4),
)
def test_bfs_agrees_with_literal_branch_checks(start, seq):
    # Dual route: the monitor-based verifier says the extension is clean,
    # so literal checks over every enumerated branch must agree.
    m = extended_machine(False)
    for t in enumerate_transcripts(m, start, seq):
        assert check_transcript(t, m.states[start]) == []


def test_refute_single_trigger():
    v = refute_variant("single_trigger")
    assert v.kind == CONTEXT_PRODUCT
    assert len(v.sequence) <= 4
    assert {v.sequence[p] for p in v.positions} == COL3
    assert v.observed == +1
    assert v.sequence == ("Y1Y2", "X1X2", "Z1Z2")


def test_refute_same_destination():
    v = refute_variant("same_destination")
    assert v.kind == CONTEXT_PRODUCT
    assert len(v.sequence) <= 4
    assert v.observed == +1
    assert v.sequence == ("Y1Y2", "X1X2", "Z1Z2")


def test_extended_machine_survives_the_refutation_search():
    assert verify_machine(extended_machine(False), 4).passed


# The eight transitions drawn in the paper's four-state diagram.
DIAGRAM_EDGES = (
    ("a", "Z1Z2", "b"),
    ("a", "X1X2", "c"),
    ("b", "Z1X2", "d"),
    ("b", "X1Z2", "a"),
    ("c", "Z1X2", "a"),
    ("c", "X1Z2", "d"),
    ("d", "Z1Z2", "c"),
    ("d", "X1X2", "b"),
)


@pytest.mark.parametrize("depth", [4, 7])
def test_search_rediscovers_the_diagram(depth):
    outcome = search_machines(family_paper4(), depth, budget=500_000)
    assert outcome.exhausted
    assert outcome.completions >= 1
    agreeing = [
        m
        for m in outcome.machines
        if all(
            m.successors(src, obs) == (m.state_index(dst),) for src, obs, dst in DIAGRAM_EDGES
        )
    ]
    assert agreeing


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_search_completions_match_brute_force_verification(depth):
    # paper4's states with the diagram's transitions, every undrawn one a
    # self-loop, except that state a's six row-1 and row-2 transitions are
    # free within value preservation: 256 tables, each verified on its own.
    family = family_paper4()
    names, outputs = family.inputs, family.outputs
    n, k = len(family.states), len(names)
    fixed = [[s] * k for s in range(n)]
    for src, obs, dst in DIAGRAM_EDGES:
        fixed[family.state_index(src)][names.index(obs)] = family.state_index(dst)
    free = {names.index(o) for o in ("Z1", "Z2", "Z1Z2", "X2", "X1", "X1X2")}
    choices_a = [family.successors(0, i) if i in free else (fixed[0][i],) for i in range(k)]
    domains = (tuple(choices_a), *(tuple((t,) for t in row) for row in fixed[1:]))
    a_free = MealyMachine(
        name="a-free",
        states=family.states,
        outputs=outputs,
        transitions=tuple(tuple(uniform_row(d) for d in row) for row in domains),
    )
    outcome = search_machines(a_free, depth, max_machines=1_000)
    assert outcome.exhausted
    found = {
        tuple(tuple(r[0][0] for r in row) for row in m.transitions) for m in outcome.machines
    }
    tables = [(row_a, *map(tuple, fixed[1:])) for row_a in itertools.product(*choices_a)]
    passing = set()
    for table in tables:
        m = MealyMachine(
            name="candidate",
            states=family.states,
            outputs=outputs,
            transitions=tuple(tuple(deterministic_row(t) for t in row) for row in table),
        )
        if verify_machine(m, depth).passed:
            passing.add(table)
    assert len(tables) == 256
    assert outcome.completions == len(found) == len(passing)
    assert found == passing
    if depth == 3:
        assert 0 < len(passing) < len(tables)


def test_search_certifies_cplus_only_nonexistence():
    outcome = search_machines(family_cplus16(), 3, budget=500_000)
    assert outcome.exhausted
    assert outcome.completions == 0


@pytest.mark.parametrize("depth", [4, 100_000])
def test_search_finds_the_skeleton_in_the_bit2_family(depth):
    outcome = search_machines(family_all32_bit2(), depth, budget=500_000)
    assert outcome.exhausted
    # Loose bound, several times the nodes taken: a worse branching order
    # shows here before it stalls a search.
    assert outcome.nodes <= 3_381
    skeleton = extended_machine(False)
    assert any(
        m.transitions == skeleton.transitions and m.outputs == skeleton.outputs
        for m in outcome.machines
    )


def test_search_budget_exhaustion_is_reported():
    outcome = search_machines(family_all32_bit2(), 4, budget=5)
    assert not outcome.exhausted
    assert outcome.nodes >= 5


def test_search_rejects_a_family_with_an_undefined_transition():
    # No completion exists, so an exhausted search would be a false
    # certificate that no machine in the family passes.
    partial = four_state_machine()
    assert not partial.is_total
    with pytest.raises(ValueError, match="undefined transition"):
        search_machines(partial, 4)


def test_search_rejects_depth_below_one():
    # Raised before the first search node: with budget 1 no completion,
    # and so no verify_machine call, could be reached.
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            search_machines(family_paper4(), depth, budget=1)


def test_search_rejects_a_budget_below_one_and_negative_max_machines():
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            search_machines(family_paper4(), 4, budget=budget)
    with pytest.raises(ValueError, match="max_machines must be >= 0"):
        search_machines(family_paper4(), 4, max_machines=-1)
    # max_machines=0 still counts completions, keeping none.
    outcome = search_machines(family_paper4(), 4, max_machines=0)
    assert (outcome.completions, outcome.machines, outcome.exhausted) == (1, (), True)


NON_INT_COUNT_CALLS = {
    "verify-depth": (lambda x: verify_machine(four_state_machine(), x), "depth must be >= 1"),
    "search-depth": (lambda x: search_machines(family_paper4(), x), "depth must be >= 1"),
    "search-budget": (
        lambda x: search_machines(family_paper4(), 4, budget=x),
        "budget must be >= 1",
    ),
    "search-max-machines": (
        lambda x: search_machines(family_paper4(), 4, max_machines=x),
        "max_machines must be >= 0",
    ),
}


@pytest.mark.parametrize("value", [True, 2.0])
@pytest.mark.parametrize("call", sorted(NON_INT_COUNT_CALLS))
def test_a_bool_or_float_is_no_depth_budget_or_machine_cap(call, value):
    # Accepted, True ran as 1 and a report said "depth": true; a depth of
    # 2.0 raised TypeError from range.
    run, message = NON_INT_COUNT_CALLS[call]
    with pytest.raises(ValueError, match=message):
        run(value)


def test_builtin_machines_are_families():
    # A completion is a deterministic sub-machine of the family, so a
    # builtin machine is searched as it stands.
    outcome = search_machines(spekkens_machine(), 3)
    assert outcome.exhausted and outcome.completions == 0
    skeleton = extended_machine()
    outcome = search_machines(skeleton, 6)
    assert outcome.exhausted and outcome.completions == 1
    assert outcome.machines[0].transitions == skeleton.transitions


def _two_state_family():
    # Two original tables differing in x1; the four observables whose value
    # involves x1 (X1, X1X2, X1Z2, Y1Y2) disagree between the states.  Each
    # transition is uniform over the states that keep the measured value.
    from pmtoy.extension import ExtOnticState, ext_value
    from pmtoy.toy import OnticState

    states = {
        s.label: s
        for s in (
            ExtOnticState(OnticState(+1, +1, +1, +1), +1),
            ExtOnticState(OnticState(+1, +1, -1, +1), +1),
        )
    }
    return ontic_machine(
        "two-state",
        states,
        ext_value,
        lambda s, o: tuple(t for t in states.values() if ext_value(t, o) == ext_value(s, o)),
    )


def test_value_preservation_prunes_the_search_space():
    # The family lists only value-preserving moves: a single one at the
    # four observables whose value involves x1, two at the other five.  At
    # depth 1 nothing behavioral constrains the table, so every one of the
    # 2**10 deterministic sub-machines passes, against 2**18 tables if the
    # moves were not restricted to value-preserving ones.
    family = _two_state_family()
    domains = [len(family.successors(s, i)) for s in range(2) for i in range(9)]
    assert sorted(domains) == [1] * 8 + [2] * 10
    outcome = search_machines(family, 1, budget=2_000_000, max_machines=1)
    assert outcome.exhausted
    assert outcome.completions == 2**10
    assert outcome.completions < 2**18


def test_value_preservation_sets_coincide_at_depth_two():
    # At depth 2, (C) still needs three steps, and (R) on an input measured
    # twice in a row holds on any value-preserving machine, so the depth-2
    # completions are the depth-1 ones.
    family = _two_state_family()
    depth1 = search_machines(family, 1, budget=2_000_000, max_machines=1)
    depth2 = search_machines(family, 2, budget=2_000_000, max_machines=1)
    assert depth1.exhausted and depth2.exhausted
    assert depth2.completions == depth1.completions == 2**10


# The nine observables out of canonical order, for machine files whose
# input columns come in another order.
SHUFFLED = ("X1Z2", "Z2", "Y1Y2", "Z1", "X2", "Z1Z2", "X1X2", "Z1X2", "X1")


def _shuffled_json(m):
    """m's JSON with its inputs, and the columns of every row, in SHUFFLED order."""
    data = m.to_json_dict()
    data["inputs"] = list(SHUFFLED)
    for table in ("outputs", "transitions"):
        for label, row in data[table].items():
            data[table][label] = {o: row[o] for o in SHUFFLED}
    return json.dumps(data)


def _random_value_preserving_machine(seed, stochastic=False):
    import random

    from pmtoy.extension import ALL_EXT, ext_value

    rng = random.Random(seed)
    outputs = tuple(tuple(ext_value(s, o) for o in pauli.OBSERVABLE_NAMES) for s in ALL_EXT)
    n = len(ALL_EXT)
    transitions = []
    for s in range(n):
        row = []
        for i in range(len(pauli.OBSERVABLE_NAMES)):
            domain = [t for t in range(n) if outputs[t][i] == outputs[s][i]]
            if stochastic:
                row.append(uniform_row(rng.sample(domain, 2)))
            else:
                row.append(deterministic_row(rng.choice(domain)))
        transitions.append(tuple(row))
    return MealyMachine(
        name=f"random-{seed}",
        states=tuple(s.label for s in ALL_EXT),
        outputs=outputs,
        transitions=tuple(transitions),
    )


def _key(v):
    return (v.kind, tuple(v.sequence[p] for p in v.positions), v.expected, v.observed)


def _literal_violation_keys(m, depth):
    # Independent oracle: enumerate every full-depth sequence from every
    # start and apply the literal transcript checks to every branch.  On a
    # total machine this also covers all shorter sequences, since their
    # violations recur inside every extension.  first_keys holds the keys
    # of the breaches at each branch's first breaching step, which are
    # exactly what a search that stops a branch at its first breach sees.
    keys, first_keys = set(), set()
    lengths = []
    for start in range(len(m.states)):
        label = m.states[start]
        for seq in itertools.product(m.inputs, repeat=depth):
            for t in enumerate_transcripts(m, start, seq):
                vs = check_transcript(t, label)
                first = min((max(v.positions) for v in vs), default=None)
                for v in vs:
                    keys.add(_key(v))
                    if max(v.positions) == first:
                        first_keys.add(_key(v))
                    lengths.append(max(v.positions) + 1)
    return keys, first_keys, (min(lengths) if lengths else None)


@pytest.mark.parametrize(
    "seed,stochastic,shuffled",
    [
        pytest.param(11, False, False, id="11-False"),
        pytest.param(22, False, False, id="22-False"),
        pytest.param(33, False, False, id="33-False"),
        pytest.param(44, False, False, id="44-False"),
        pytest.param(55, True, False, id="55-True"),
        pytest.param(66, False, True, id="66-False-shuffled"),
        pytest.param(77, True, True, id="77-True-shuffled"),
    ],
)
def test_verifier_agrees_with_brute_force_on_random_machines(seed, stochastic, shuffled):
    # Cross-validation of the monitor-based verifier against literal
    # enumeration, on machines that are mostly broken in random ways; the
    # shuffled ones are read from a file whose input columns are out of order.
    m = _random_value_preserving_machine(seed, stochastic)
    if shuffled:
        m = MealyMachine.from_json(_shuffled_json(m))
    depth = 3
    report = verify_machine(m, depth)
    literal_keys, first_keys, literal_min = _literal_violation_keys(m, depth)
    assert report.passed == (not literal_keys)
    # The BFS prunes behind a breach, so it may see fewer distinct keys,
    # never spurious ones: exactly those at each branch's first breach.
    # Shortest-witness depth must agree exactly.
    assert {_key(v) for v in report.violations} == first_keys
    if literal_keys:
        assert min(len(v.sequence) for v in report.violations) == literal_min


@pytest.mark.parametrize("kind", ["single_trigger", "same_destination", "spekkens16"])
def test_violation_keys_do_not_depend_on_input_order(kind, tmp_path, capsys):
    # A machine file may list its input columns in any order: it loads as
    # the canonical machine, and `pmtoy verify` reports the same violations.
    m = spekkens_machine() if kind == "spekkens16" else variant_machine(kind)
    loaded = MealyMachine.from_json(_shuffled_json(m))
    assert loaded == m and loaded.to_json() == m.to_json()
    reports = []
    for name, text in (("canonical", m.to_json()), ("shuffled", _shuffled_json(m))):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(["verify", "--machine", str(path), "--depth", "4"]) == 1
        report = json.loads(capsys.readouterr().out)
        del report["elapsed_ms"]
        reports.append(report)
    assert reports[0]["violations"]
    assert reports[1] == reports[0]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dump_of_a_shuffled_file_is_the_builtin_dump(fmt, tmp_path, capsys):
    # `dump` reads each output row by position; a file whose input columns
    # come in another order still loads as the builtin and dumps its bytes.
    path = tmp_path / "shuffled.json"
    path.write_text(_shuffled_json(extended_machine()))
    assert main(["dump", "--machine", "extended32", "--format", fmt]) == 0
    builtin = capsys.readouterr().out
    assert main(["dump", "--machine", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == builtin


def _new_keys_per_level(m, reduced=False):
    """New product keys after 1, 2, ... measurements, from every start.

    Breaching moves are not expanded, as in `verify_machine`; the last
    count is the first 0.  The keys are the walkers' own, on the compiled
    monitor tables: the raw table is the one `search_machines` walks, and
    reduced=True the one `verify_machine` walks, which forgets e2 unless e1
    can still start a context.
    """
    nxt, _, _ = _compiled(reduced)
    n = len(m.states)
    seen = set(range(n))
    level, counts = list(seen), []
    while level:
        new = []
        for key in level:
            mu, s = divmod(key, n)
            for i, v in enumerate(m.outputs[s]):
                step = nxt[mu * _CODES + _code(i, v)]
                if step == _BREACH:
                    continue
                for t in m.successors(s, i):
                    nkey = step * n + t
                    if nkey not in seen:
                        seen.add(nkey)
                        new.append(nkey)
        level = new
        counts.append(len(new))
    return counts


@pytest.mark.parametrize(
    "name, counts",
    [
        ("spekkens16", [144, 1872, 3360, 336, 48, 0]),
        ("extended32", [224, 1760, 2624, 288, 0]),
        ("extended32-randomized", [224, 2464, 3840, 288, 0]),
        ("paper4", [8, 16, 0]),
    ],
)
def test_product_graph_of_every_builtin_saturates_by_depth_six(name, counts):
    # No key is new after five measurements, so a breach needs at most six:
    # from depth 6 on, `verify_machine` sees every key and every breach.
    from pmtoy.cli import build_machine

    assert _new_keys_per_level(build_machine(name)) == counts


@pytest.mark.parametrize(
    "name, counts",
    [
        ("spekkens16", [144, 576, 1056, 336, 48, 0]),
        ("extended32", [224, 704, 1280, 288, 0]),
        ("extended32-randomized", [224, 704, 1280, 288, 0]),
        ("paper4", [8, 0]),
    ],
)
def test_reduced_product_graph_of_every_builtin(name, counts):
    # The graph `verify_machine` walks: a key keeps its second-last step
    # only while that step can still start a context, so equivalent raw
    # keys merge.  It saturates no later than the raw graph above.
    from pmtoy.cli import build_machine

    assert _new_keys_per_level(build_machine(name), reduced=True) == counts


def _shortest_words(nxt):
    """Per monitor state, a shortest step-code word reaching it from state 0."""
    words = {0: ()}
    queue = [0]
    for mu in queue:
        for code in range(1, _CODES):
            nu = nxt[mu * _CODES + code]
            if nu != _BREACH and nu not in words:
                words[nu] = words[mu] + (code,)
                queue.append(nu)
    return words


def _last_step_violations(word):
    """The violation keys `_check_run` reports at the last step of a code word."""
    seq = [_NAMES[(c - 1) // 2] for c in word]
    outs = [-1 if (c - 1) % 2 else 1 for c in word]
    return tuple(
        sorted({_key(v) for v in _check_run(seq, outs) if max(v.positions) == len(word) - 1})
    )


def _classes(nxt, label):
    """The number of classes of Moore's partition refinement, from `label`."""
    classes = label
    while True:
        signature = {
            mu: (classes[mu], tuple(classes.get(nxt[mu * _CODES + c]) for c in range(1, _CODES)))
            for mu in classes
        }
        ids = {}
        refined = {mu: ids.setdefault(sig, len(ids)) for mu, sig in signature.items()}
        if len(ids) == len(set(classes.values())):
            return len(ids)
        classes = refined


@pytest.mark.parametrize("reduced, size", [(True, 739), (False, 1477)])
def test_compiled_monitor_breaches_where_the_literal_checks_do(reduced, size):
    # Every state is reached; each of its 18 steps is a breach exactly when
    # the literal checks report a violation at that step, after a shortest
    # word reaching the state.
    nxt, bad, last = _compiled(reduced)
    words = _shortest_words(nxt)
    assert len(words) == len(bad) == len(last) == size
    assert len(nxt) == size * _CODES
    for mu, word in words.items():
        assert last[mu] == (word[-1] if word else 0)
        for code in range(1, _CODES):
            breach = nxt[mu * _CODES + code] == _BREACH
            assert breach == bool(bad[mu] >> code & 1)
            assert breach == bool(_last_step_violations(word + (code,))), (word, code)


@pytest.mark.parametrize("reduced", [True, False])
def test_no_smaller_monitor_reports_the_same_violations(reduced):
    # Refining by the violations each step reports leaves 739 classes, the
    # reduced monitor's states: it is the least monitor whose witnesses, and
    # so whose reports, are the literal checks'.  By pass/fail alone 595
    # classes remain, but such a quotient could report other witnesses.
    nxt, _, _ = _compiled(reduced)
    words = _shortest_words(nxt)
    steps = {
        mu: tuple(_last_step_violations(word + (c,)) for c in range(1, _CODES))
        for mu, word in words.items()
    }
    by_violation, by_breach = {}, {}
    violation_label = {
        mu: by_violation.setdefault(row, len(by_violation)) for mu, row in steps.items()
    }
    breach_label = {
        mu: by_breach.setdefault(tuple(map(bool, row)), len(by_breach))
        for mu, row in steps.items()
    }
    assert _classes(nxt, violation_label) == 739
    assert _classes(nxt, breach_label) == 595


# The product graph as it was built before the monitor was compiled into a
# table, kept as the reference that `_raw_verify_machine` walks.
# A product key (s, K, V, e2, e1): a machine state and a `_monitor` state.
_Key = tuple[int, int, int, int, int]
# A product move at (s, i): (bit, keep, neg bit, step code, successors).
_Move = tuple[int, int, int, int, tuple[int, ...]]


def _monitor(m: MealyMachine) -> tuple[Callable[[_Key], int], list[list[_Move]]]:
    """The product graph of machine m with the (R)+(C) monitor.

    A monitor state is (K, V, e2, e1): bit i of K marks a pending value for
    input i (the i-th of `pauli.OBSERVABLE_NAMES`) and bit i of V says it is
    -1; e2 and e1 code the last two steps as 1 + 2i + (v < 0), 0 for none.
    The monitor's own tables, `_THIRD` and `_KEEP`, are built once; per
    machine only its output signs and moves are.  breaches(key) is the mask
    of inputs whose measurement at the key breaches (R) or (C).  Measuring
    input i at state s, moves[s][i] = (bit, keep, neg, code, successors),
    takes key (s, K, V, e2, e1) to (t, (K & keep) | bit, (V & keep) | neg,
    e1, code) for each successor t; keep marks the inputs compatible with i.
    `search_machines` walks these raw keys: its printed node counts depend
    on them (on reduced keys, paper4 at depth 4 takes 80 nodes, not 75,
    and all32-bit2 777, not 921, for the same completions).
    """
    out = m.outputs
    neg = [sum(1 << i for i, v in enumerate(row) if v < 0) for row in out]
    moves = [
        [
            (1 << i, _KEEP[i], neg[s] & (1 << i), _code(i, v), m.successors(s, i))
            for i, v in enumerate(row)
        ]
        for s, row in enumerate(out)
    ]

    def breaches(key: _Key) -> int:
        s, K, V, e2, e1 = key
        bad = K & (V ^ neg[s])
        ctx = _THIRD.get((e2, e1))
        if ctx is not None and out[s][ctx[0]] != ctx[1]:
            bad |= 1 << ctx[0]
        return bad

    return breaches, moves


def _raw_verify_machine(m, depth):
    """`verify_machine` on the raw product keys, its second-last step always kept.

    The reference for the reduced walk: the loop as it stood before keys
    forgot that step.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t0 = time.perf_counter()
    out = m.outputs
    breaches, moves = _monitor(m)
    parent: dict[_Key, tuple[_Key, int] | None] = {
        (s, 0, 0, 0, 0): None for s in range(len(m.states))
    }
    level = list(parent)

    found: dict[tuple, Violation] = {}

    def witness(key: _Key, i: int) -> tuple[str, tuple[str, ...], tuple[int, ...]]:
        run = [(key[0], i)]
        while parent[key]:
            key, i = parent[key]
            run.append((key[0], i))
        seq = tuple(_NAMES[i] for _, i in reversed(run))
        return m.states[key[0]], seq, tuple(out[s][i] for s, i in reversed(run))

    for d in range(depth):
        expand = d + 1 < depth
        nxt: list[_Key] = []
        for key in level:
            s, K, V, _, e1 = key
            bad = breaches(key)
            for i, (bit, kp, nb, code, ts) in enumerate(moves[s]):
                if bad & bit:
                    start_label, seq, outs = witness(key, i)
                    for vio in _check_run(seq, outs, start_label):
                        dedup = (
                            vio.kind,
                            tuple(seq[p] for p in vio.positions),
                            vio.expected,
                            vio.observed,
                        )
                        found.setdefault(dedup, vio)
                    continue
                if expand and ts:
                    nK = (K & kp) | bit
                    nV = (V & kp) | nb
                    for t in ts:
                        nkey = (t, nK, nV, e1, code)
                        if nkey not in parent:
                            parent[nkey] = (key, i)
                            nxt.append(nkey)
        level = nxt
        if not level:
            break

    elapsed = (time.perf_counter() - t0) * 1000
    violations = tuple(
        sorted(
            found.values(),
            key=lambda v: (len(v.sequence), v.kind, v.sequence, v.positions),
        )
    )
    # n * (9 + 9^2 + ... + 9^depth) for n start states, in closed form.
    total = len(m.states) * 9 * (9**depth - 1) // 8
    return VerificationReport(
        machine=m.name,
        depth=depth,
        sequences_checked=total,
        violations=violations,
        elapsed_ms=elapsed,
        notes=tuple(m.notes),
    )


@st.composite
def _small_ontic_machines(draw):
    """A value-preserving machine on 1-6 extended states, some rows empty."""
    from pmtoy.extension import ALL_EXT, ext_value

    chosen = draw(st.lists(st.sampled_from(ALL_EXT), min_size=1, max_size=6, unique=True))
    moves = {
        (s, o): draw(
            st.lists(
                st.sampled_from([t for t in chosen if ext_value(t, o) == ext_value(s, o)]),
                unique=True,
            )
        )
        for s in chosen
        for o in pauli.OBSERVABLE_NAMES
    }
    return ontic_machine(
        "random", {s.label: s for s in chosen}, ext_value, lambda s, o: moves[s, o]
    )


@settings(max_examples=150, deadline=None)
@given(m=_small_ontic_machines(), depth=st.integers(min_value=1, max_value=6))
def test_reduced_walk_reports_what_the_raw_walk_reports(m, depth):
    # Merged keys breach alike now and after every continuation, and the
    # reduced levels are the raw ones with repeated classes dropped, so the
    # first witness of every violation, and the report, are the same.
    reports = [walk(m, depth).to_dict() for walk in (verify_machine, _raw_verify_machine)]
    for report in reports:
        del report["elapsed_ms"]
    assert reports[0] == reports[1]


def test_violation_list_holds_every_one_of_the_54_keys():
    # A violation key is (kind, observables at the breach, expected,
    # observed): 9 observables x 2 outcomes for (R) and 6 contexts x 6
    # orders for (C), whose sign fixes both outcomes.  Every value-preserving
    # move over the 32 extended states reaches all of them, and the report
    # lists each one, with no note that anything was left out.
    from pmtoy.extension import ALL_EXT, ext_value

    def moves(s, o):
        return tuple(t for t in ALL_EXT if ext_value(t, o) == ext_value(s, o))

    m = ontic_machine("all-moves", {s.label: s for s in ALL_EXT}, ext_value, moves)
    report = verify_machine(m, 3)
    assert collections.Counter(v.kind for v in report.violations) == {
        REPEATABILITY: 18,
        CONTEXT_PRODUCT: 36,
    }
    assert len({_key(v) for v in report.violations}) == 54
    assert report.notes == ()


def test_cplus16_nonexistence_has_an_independent_argument():
    # Independent oracle for the search certificate: within the original 16
    # tables, any value-preserving chain s0 -Z1Z2-> t1 -X1X2-> t2 fails
    # either [Z1Z2, X1X2, Z1Z2] (repeatability) or [Z1Z2, X1X2, Y1Y2]
    # (context product), because Y1Y2's value on these tables is exactly
    # the product of the Z1Z2 and X1X2 values.
    from pmtoy.toy import ALL_ONTIC, observable_value

    for s0 in ALL_ONTIC:
        z0 = observable_value(s0, "Z1Z2")
        for t1 in ALL_ONTIC:
            if observable_value(t1, "Z1Z2") != z0:
                continue
            x1 = observable_value(t1, "X1X2")
            for t2 in ALL_ONTIC:
                if observable_value(t2, "X1X2") != x1:
                    continue
                repeat_ok = observable_value(t2, "Z1Z2") == z0
                context_ok = z0 * x1 * observable_value(t2, "Y1Y2") == -1
                assert not (repeat_ok and context_ok)


def test_extended_machine_runs_at_depth_three_are_quantum_runs():
    # Every run the skeleton emits within three steps has positive exact
    # quantum weight; its first forbidden run has length four.
    m = extended_machine(False)
    for seq in itertools.product(pauli.OBSERVABLE_NAMES, repeat=3):
        qm = knowledge_runs(seq)
        for start in range(len(m.states)):
            for t in enumerate_transcripts(m, start, seq):
                assert t.outputs in qm, (m.states[start], seq, t.outputs)
