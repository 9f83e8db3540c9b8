"""Toy-bit partitions, sign tables, measurement cosets, and the toy knowledge rule."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from pm_figures import FIGURE_16
from pmtoy import pauli
from pmtoy.machine import enumerate_transcripts
from pmtoy.pauli import COMMUTING, knowledge_runs, measure_knowledge
from pmtoy.toy import (
    ALL_ONTIC,
    TOY_SIGN,
    TOYBIT_CELLS,
    OnticState,
    ToyBitOntic,
    compact,
    coset,
    observable_value,
    spekkens_machine,
    table_of,
    toybit_measure,
)


def test_toybit_four_states_and_derived_y():
    assert len(set(TOYBIT_CELLS)) == 4
    for cell in TOYBIT_CELLS:
        assert cell.y == cell.z * cell.x


def test_toybit_partitions():
    # Cell numbering gives X+ = {1,2}, Y+ = {1,3}, Z+ = {1,4}.
    xplus = {i + 1 for i, c in enumerate(TOYBIT_CELLS) if c.x == +1}
    yplus = {i + 1 for i, c in enumerate(TOYBIT_CELLS) if c.y == +1}
    zplus = {i + 1 for i, c in enumerate(TOYBIT_CELLS) if c.z == +1}
    assert xplus == {1, 2}
    assert yplus == {1, 3}
    assert zplus == {1, 4}


def test_toybit_measure_cell2_x_axis():
    outcome, _ = toybit_measure(ToyBitOntic(-1, +1), "X", random.Random(0))
    assert outcome == +1


def test_toybit_measure_z_update_stays_in_partition():
    seen = set()
    for seed in range(32):
        outcome, nxt = toybit_measure(ToyBitOntic(+1, +1), "Z", random.Random(seed))
        assert outcome == +1
        seen.add(nxt)
    assert seen == {ToyBitOntic(+1, +1), ToyBitOntic(+1, -1)}


def test_toybit_repeated_measurement_is_repeatable():
    # Exhaust all states, axes, and both coset members.
    for s in TOYBIT_CELLS:
        for axis in "XYZ":
            for seed in range(8):
                rng = random.Random(seed)
                first, nxt = toybit_measure(s, axis, rng)
                second, _ = toybit_measure(nxt, axis, rng)
                assert first == second


def test_toybit_measure_rejects_bad_axis():
    # I is a Pauli letter but not a measurement of the toy bit.
    for axis in ("W", "I", "", "XY"):
        with pytest.raises(ValueError, match="axis must be X, Y or Z"):
            toybit_measure(ToyBitOntic(+1, +1), axis, random.Random(0))


def test_table_of_all_plus_state():
    t = table_of(OnticState(+1, +1, +1, +1))
    assert compact(t) == "+++/+++/+++"


def test_table_of_worked_example_state():
    # (z1, z2, x1, x2) = (+, -, +, +) is the worked example table.
    t = table_of(OnticState(+1, -1, +1, +1))
    assert t == (+1, -1, -1, +1, +1, +1, +1, -1, -1)


def test_sixteen_tables_match_figure():
    assert [compact(table_of(s)) for s in ALL_ONTIC] == FIGURE_16


def test_all_context_products_plus_one():
    for s in ALL_ONTIC:
        products = pauli.context_products(table_of(s))
        assert set(products.values()) == {+1}


def test_table_of_is_injective():
    tables = {table_of(s) for s in ALL_ONTIC}
    assert len(tables) == 16


def test_commuting_sets_match_operator_algebra():
    for a in pauli.OBSERVABLE_NAMES:
        expected = {
            b
            for b in pauli.OBSERVABLE_NAMES
            if pauli.commutes(pauli.OBSERVABLES[a], pauli.OBSERVABLES[b])
        }
        assert COMMUTING[a] == expected
        assert len(expected) == 5  # itself plus its two contexts


def _brute_force_coset(s, name):
    # Independent oracle: states preserving the value of every compatible
    # observable, by direct enumeration over all 16.
    return {
        t
        for t in ALL_ONTIC
        if all(
            observable_value(t, other) == observable_value(s, other)
            for other in COMMUTING[name]
        )
    }


def test_cosets_match_brute_force_everywhere():
    for s in ALL_ONTIC:
        for name in pauli.OBSERVABLE_NAMES:
            members = set(coset(s, name))
            assert members == _brute_force_coset(s, name)
            assert s in members
            assert len(members) == 2


def test_coset_examples():
    s = OnticState(+1, +1, +1, +1)
    assert set(coset(s, "Z1")) == {
        OnticState(+1, +1, +1, +1),
        OnticState(+1, +1, -1, +1),
    }
    assert set(coset(s, "Z1Z2")) == {
        OnticState(+1, +1, +1, +1),
        OnticState(+1, +1, -1, -1),
    }


def test_values_and_cosets_reject_non_pm_observables():
    s = OnticState(+1, +1, +1, +1)
    for name in ("Y1", "II", "ZI"):
        with pytest.raises(ValueError, match="not a PM observable"):
            observable_value(s, name)
        with pytest.raises(ValueError, match="not a PM observable"):
            coset(s, name)


def test_toy_measure_never_disturbs_compatible_values():
    for s in ALL_ONTIC:
        for name in pauli.OBSERVABLE_NAMES:
            for nxt in coset(s, name):
                for other in COMMUTING[name]:
                    assert observable_value(nxt, other) == observable_value(s, other)


def test_repeated_measurement_equal_over_all_branches():
    for s in ALL_ONTIC:
        for name in pauli.OBSERVABLE_NAMES:
            first = observable_value(s, name)
            for nxt in coset(s, name):
                assert observable_value(nxt, name) == first


def _members(k):
    """The ontic states that give every value fixed in the knowledge state k."""
    return frozenset(s for s in ALL_ONTIC if all(observable_value(s, o) == v for o, v in k))


def _toy_branches(k, name):
    return {v: (w, nxt) for v, w, nxt in measure_knowledge(k, name, TOY_SIGN)}


def test_epistemic_ignorance_and_single_question():
    assert len(_members(frozenset())) == 16
    w, k1 = _toy_branches(frozenset(), "Z1")[+1]
    assert w == Fraction(1, 2)
    assert len(_members(k1)) == 8
    assert all(s.z1 == +1 for s in _members(k1))


def test_epistemic_contradictory_conditioning_is_empty():
    _, k1 = _toy_branches(frozenset(), "Z1")[+1]
    assert set(_toy_branches(k1, "Z1")) == {+1}
    assert _members(k1 | {("Z1", -1)}) == frozenset()


def test_epistemic_two_questions_reach_maximal_knowledge():
    _, k1 = _toy_branches(frozenset(), "Z1")[+1]
    _, k2 = _toy_branches(k1, "Z2")[+1]
    assert len(_members(k2)) == 4
    assert all(s.z1 == +1 and s.z2 == +1 for s in _members(k2))


def _conditioned(members, name, v):
    """Ontic-set conditioning: every state the measurement update reaches
    from a member that gives v; empty when v has probability zero."""
    reachable = set()
    for s in members:
        if observable_value(s, name) == v:
            reachable.update(coset(s, name))
    return frozenset(reachable)


def test_toy_rule_is_ontic_set_conditioning_on_every_reachable_state():
    # Induction on the length: from each of the 43 reachable toy states the
    # rule's branches are exactly the ontic-set update's, with the share of
    # members giving v as the weight.
    states = [frozenset()]
    for k in states:
        for name in pauli.OBSERVABLE_NAMES:
            branches = _toy_branches(k, name)
            for v in (+1, -1):
                reached = _conditioned(_members(k), name, v)
                if not reached:
                    assert v not in branches, (k, name, v)
                    continue
                w, nxt = branches[v]
                giving_v = [s for s in _members(k) if observable_value(s, name) == v]
                assert w == Fraction(len(giving_v), len(_members(k)))
                assert _members(nxt) == reached, (k, name, v)
                if nxt not in states:
                    states.append(nxt)
    assert len(states) == 43
    assert Counter(len(_members(k)) for k in states) == {16: 1, 8: 18, 4: 24}


def test_spekkens_machine_structure():
    m = spekkens_machine()
    assert len(m.states) == 16
    assert m.inputs == pauli.OBSERVABLE_NAMES
    s = m.state_index("++++")
    assert m.output(s, "Z1") == +1
    assert set(m.successors(s, "Z1")) == {m.state_index("++++"), m.state_index("++-+")}


def test_spekkens_machine_context_products_all_plus():
    # Every state, every context, every order, every branch: product +1.
    m = spekkens_machine()
    for start in range(len(m.states)):
        for names in pauli.CONTEXT_NAMES.values():
            for order in itertools.permutations(names):
                for t in enumerate_transcripts(m, start, order):
                    assert t.outputs[0] * t.outputs[1] * t.outputs[2] == +1


def _uniform_machine_runs(m, seq):
    """Outcome weights of m over seq from the uniform mixture of its states."""
    runs = Counter()
    for start in range(len(m.states)):
        for t in enumerate_transcripts(m, start, seq):
            runs[t.outputs] += t.probability / len(m.states)
    return dict(runs)


def test_spekkens_machine_from_a_uniform_start_is_the_toy_rule():
    # Every sequence of length 1-3 (819) and every 37th of length 4.
    m = spekkens_machine()
    names = pauli.OBSERVABLE_NAMES
    seqs = [seq for n in (1, 2, 3) for seq in itertools.product(names, repeat=n)]
    seqs += list(itertools.product(names, repeat=4))[::37]
    assert len(seqs) == 819 + 178
    for seq in seqs:
        assert _uniform_machine_runs(m, seq) == knowledge_runs(seq, TOY_SIGN), seq

