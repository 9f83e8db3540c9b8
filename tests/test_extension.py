"""The 32-state contextual extension and the four-state diagram fixture."""

import pytest

from pm_figures import DIAGRAM_TABLES, FIGURE_16, FIGURE_32_RIGHT
from pmtoy import pauli
from pmtoy.extension import (
    ALIASES,
    ALL_EXT,
    CANONICAL_TRIGGERS,
    DRAWN_EDGES,
    LABEL_DISCREPANCIES,
    ExtOnticState,
    ext_value,
    extended_machine,
    four_state_machine,
    skeleton_next,
    variant_machine,
)
from pmtoy.pauli import COMMUTING
from pmtoy.toy import ALL_ONTIC, OnticState, compact, table_of

# Each extended state's sign table, as the machine emits it.
TABLES = dict(zip(ALL_EXT, extended_machine().outputs))


def test_thirty_two_states():
    assert len(set(ALL_EXT)) == 32
    assert sum(1 for s in ALL_EXT if s.c == +1) == 16


def test_the_machine_stores_its_states_in_all_ext_order():
    for randomized in (False, True):
        assert extended_machine(randomized).states == tuple(s.label for s in ALL_EXT)


def test_aliases_have_the_diagram_tables():
    for alias, table in DIAGRAM_TABLES.items():
        assert compact(TABLES[ALIASES[alias]]) == table


def test_spec_example_tables():
    assert compact(TABLES[ExtOnticState(OnticState(+1, +1, +1, +1), +1)]) == "+++/+++/+++"
    b = ExtOnticState(OnticState(+1, +1, +1, -1), -1)
    assert TABLES[b] == (+1, +1, +1, -1, +1, -1, -1, +1, +1)
    d = ExtOnticState(OnticState(+1, -1, +1, -1), +1)
    assert TABLES[d] == (+1, -1, -1, -1, +1, -1, -1, -1, +1)


def test_extended_tables_match_both_figure_halves():
    compacts = [compact(TABLES[s]) for s in ALL_EXT]
    assert compacts[:16] == FIGURE_16
    assert compacts[16:] == FIGURE_32_RIGHT


def test_cplus_half_equals_original_tables():
    for s in ALL_ONTIC:
        assert TABLES[ExtOnticState(s, +1)] == table_of(s)


def test_context_products_track_the_contradiction_flag():
    for s in ALL_EXT:
        products = pauli.context_products(TABLES[s])
        assert products["row1"] == products["row2"] == +1
        assert products["col1"] == products["col2"] == +1
        assert products["row3"] == s.c
        assert products["col3"] == s.c
        minus = sum(1 for v in products.values() if v == -1)
        assert minus in (0, 2)


def test_skeleton_reproduces_spec_edges():
    a, b, c, d = (ALIASES[x] for x in "abcd")
    assert ext_value(a, "Z1Z2") == +1 and skeleton_next(a, "Z1Z2") == b
    assert ext_value(d, "X1X2") == -1 and skeleton_next(d, "X1X2") == b
    assert ext_value(b, "X1Z2") == +1 and skeleton_next(b, "X1Z2") == a


def test_trigger_fires_only_on_the_deviating_context():
    for s in ALL_EXT:
        for name in pauli.OBSERVABLE_NAMES:
            nxt = skeleton_next(s, name)
            if (s.c, name) in CANONICAL_TRIGGERS:
                assert nxt.c == -s.c
                flipped = [i for i in range(4) if nxt.base[i] != s.base[i]]
                assert len(flipped) == 1 and flipped[0] in (1, 3)
            else:
                assert nxt == s


def test_trigger_preserves_measured_value_and_y1y2():
    for s in ALL_EXT:
        for name in pauli.OBSERVABLE_NAMES:
            nxt = skeleton_next(s, name)
            assert ext_value(nxt, name) == ext_value(s, name)
            if nxt != s and "Y1Y2" in COMMUTING[name]:
                assert ext_value(nxt, "Y1Y2") == ext_value(s, "Y1Y2")


def test_machine_value_preservation_over_all_pairs():
    for randomized in (False, True):
        m = extended_machine(randomized)
        assert len(m.states) == 32
        for s in range(32):
            for i in range(9):
                for t in m.successors(s, i):
                    assert m.outputs[t][i] == m.outputs[s][i]


def test_randomized_transitions_are_coset_pairs():
    m = extended_machine(True)
    a = m.state_index("++++/col")
    succ = {m.states[t] for t in m.successors(a, "Z1Z2")}
    # Trigger lands on b; the Z1Z2 coset then allows a joint x1,x2 flip.
    assert succ == {"+++-/row", "++-+/row"}
    probs = [p for _, p in m.transitions[a][m.input_index("Z1Z2")]]
    assert all(p == pytest.approx(0.5) for p in map(float, probs))


def test_deterministic_skeleton_is_deterministic():
    m = extended_machine(False)
    assert all(len(dist) == 1 for row in m.transitions for dist in row)


def test_four_state_machine_matches_skeleton_restriction():
    p4 = four_state_machine()
    matches = 0
    for src, obs, drawn, dst in DRAWN_EDGES:
        nxt = skeleton_next(ALIASES[src], obs)
        assert nxt == ALIASES[dst]
        assert p4.successors(src, obs) == (p4.state_index(dst),)
        emitted = p4.output(src, obs)
        assert emitted == ext_value(ALIASES[src], obs)
        if emitted == drawn:
            matches += 1
    assert matches == 7  # the b->a X1Z2 edge is the documented exception


def test_documented_label_discrepancy():
    assert LABEL_DISCREPANCIES == (("b", "X1Z2", -1, +1),)
    assert any("label discrepancy" in note for note in four_state_machine().notes)


def test_four_state_machine_is_partial():
    p4 = four_state_machine()
    assert not p4.is_total
    defined = [
        (s, i)
        for s in range(4)
        for i in range(9)
        if p4.transitions[s][i]
    ]
    assert len(defined) == 8


def test_variant_machines_are_valid_but_different():
    single = variant_machine("single_trigger")
    same = variant_machine("same_destination")
    a = single.state_index("++++/col")
    # single_trigger: only Z1Z2 escapes from the c=+1 class.
    assert single.successors(a, "Z1Z2") == (single.state_index("+++-/row"),)
    assert single.successors(a, "X1X2") == (a,)
    # same_destination: Z1Z2 and X1X2 both land on the c-flipped twin.
    twin = same.state_index("++++/row")
    assert same.successors(a, "Z1Z2") == (twin,)
    assert same.successors(a, "X1X2") == (twin,)
    # Exceptions are not cached: an unknown kind raises on every call.
    for _ in range(2):
        with pytest.raises(ValueError, match="variant must be one of"):
            variant_machine("nonsense")


def test_extended_machine_every_input_changes_nothing_but_triggers():
    m = extended_machine(False)
    for s, state in enumerate(ALL_EXT):
        for i, name in enumerate(pauli.OBSERVABLE_NAMES):
            (t,) = m.successors(s, i)
            if (state.c, name) in CANONICAL_TRIGGERS:
                assert t != s
            else:
                assert t == s


def test_state_count_doubling():
    assert len(ALL_EXT) == 2 * len(ALL_ONTIC) == 32
