"""Operator algebra, PM square structure, outcome trees, and the parity scan."""

import itertools
from collections import Counter

import numpy as np
import pytest

from pmtoy import pauli
from pmtoy.pauli import (
    ALL_WORDS,
    CONTEXT_NAMES,
    OBSERVABLE_NAMES,
    OBSERVABLES,
    PRESCRIBED_SIGN,
    PauliWord,
    commutes,
    context_product_sign,
    knowledge_runs,
    ks_scan_summary,
    maximally_mixed,
    measure_knowledge,
    qm_outcome_tree,
    tree_transcripts,
)


def test_sixteen_distinct_words():
    assert len(set(ALL_WORDS)) == 16
    assert PauliWord("I", "I") not in OBSERVABLES.values()
    assert len(OBSERVABLES) == 9


def test_identity_word_gives_identity_matrix():
    assert np.array_equal(PauliWord("I", "I").matrix(), np.eye(4))


def test_z1_matrix_is_diagonal_with_balanced_spectrum():
    m = PauliWord("Z", "I").matrix()
    assert np.array_equal(m, np.diag([1, 1, -1, -1]))
    assert sorted(np.linalg.eigvalsh(m)) == [-1, -1, 1, 1]


def test_all_words_square_to_identity():
    for w in ALL_WORDS:
        m = w.matrix()
        assert np.allclose(m @ m, np.eye(4), atol=1e-12)
        assert np.allclose(m, m.conj().T, atol=1e-12)


def test_last_column_operator_identity():
    zz = PauliWord("Z", "Z").matrix()
    xx = PauliWord("X", "X").matrix()
    yy = PauliWord("Y", "Y").matrix()
    assert np.allclose(zz @ xx @ yy, -np.eye(4), atol=1e-12)


def test_commutes_examples():
    assert commutes(PauliWord("Z", "Z"), PauliWord("X", "X"))
    assert not commutes(PauliWord("Z", "I"), PauliWord("X", "I"))
    for w in ALL_WORDS:
        assert commutes(w, w)


def test_commutes_agrees_with_matrix_commutator():
    for a, b in itertools.product(ALL_WORDS, repeat=2):
        ma, mb = a.matrix(), b.matrix()
        matrix_commute = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
        assert commutes(a, b) == matrix_commute, (a, b)


def test_grid_layout():
    # OBSERVABLE_NAMES lists the square row by row, and the contexts follow.
    rows = (
        ("Z1", "Z2", "Z1Z2"),
        ("X2", "X1", "X1X2"),
        ("Z1X2", "X1Z2", "Y1Y2"),
    )
    assert OBSERVABLE_NAMES == rows[0] + rows[1] + rows[2]
    assert CONTEXT_NAMES == {
        "row1": rows[0],
        "row2": rows[1],
        "row3": rows[2],
        "col1": ("Z1", "X2", "Z1X2"),
        "col2": ("Z2", "X1", "X1Z2"),
        "col3": ("Z1Z2", "X1X2", "Y1Y2"),
    }
    assert list(CONTEXT_NAMES) == ["row1", "row2", "row3", "col1", "col2", "col3"]
    assert OBSERVABLES["Z1"] == PauliWord("Z", "I")
    assert OBSERVABLES["X2"] == PauliWord("I", "X")
    assert OBSERVABLES["Z1X2"] == PauliWord("Z", "X")
    assert OBSERVABLES["Y1Y2"] == PauliWord("Y", "Y")


def test_context_products_read_nine_signs_row_by_row():
    # One -1 flips exactly the row and the column through its cell.
    for i, name in enumerate(OBSERVABLE_NAMES):
        values = [+1] * 9
        values[i] = -1
        products = pauli.context_products(values)
        flipped = {ctx for ctx, p in products.items() if p == -1}
        assert flipped == {f"row{i // 3 + 1}", f"col{i % 3 + 1}"}, name


def test_contexts_pairwise_commute():
    for ctx, names in CONTEXT_NAMES.items():
        for a, b in itertools.combinations(names, 2):
            assert commutes(OBSERVABLES[a], OBSERVABLES[b]), (ctx, a, b)


def test_compatibility_graph_maximal_cliques_are_the_contexts():
    # Brute force over all subsets of the nine observables.
    names = list(OBSERVABLE_NAMES)
    cliques = []
    for r in range(2, 10):
        for subset in itertools.combinations(names, r):
            if all(
                commutes(OBSERVABLES[a], OBSERVABLES[b])
                for a, b in itertools.combinations(subset, 2)
            ):
                cliques.append(frozenset(subset))
    maximal = {c for c in cliques if not any(c < other for other in cliques)}
    assert maximal == {frozenset(v) for v in CONTEXT_NAMES.values()}


def test_context_product_signs():
    signs = {ctx: context_product_sign(ctx) for ctx in PRESCRIBED_SIGN}
    assert signs == dict(PRESCRIBED_SIGN)
    total = 1
    for s in signs.values():
        total *= s
    assert total == -1


def test_outcome_tree_single_measurement_on_mixed_state():
    root = qm_outcome_tree(["Z1"])
    assert len(root.branches) == 2
    for br in root.branches:
        assert br.probability == pytest.approx(0.5, abs=1e-12)


def test_outcome_tree_branch_probabilities_sum_to_one():
    root = qm_outcome_tree(["Z1Z2", "X1X2", "Z1", "Y1Y2"])

    def walk(node):
        if not node.branches:
            return
        assert sum(b.probability for b in node.branches) == pytest.approx(
            1.0, abs=1e-12
        )
        for b in node.branches:
            walk(b.node)

    walk(root)
    total = sum(p for _, p in tree_transcripts(root))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_outcome_tree_last_column_product_is_minus_one():
    root = qm_outcome_tree(["Z1Z2", "X1X2", "Y1Y2"])
    for outcomes, prob in tree_transcripts(root):
        assert outcomes[0] * outcomes[1] * outcomes[2] == -1
        assert prob > 0


def test_outcome_tree_repeated_measurement_is_deterministic():
    root = qm_outcome_tree(["Z1", "Z1"])
    for outcomes, _ in tree_transcripts(root):
        assert outcomes[0] == outcomes[1]


def test_outcome_tree_accepts_pauli_words_directly():
    root = qm_outcome_tree([PauliWord("Z", "Z"), PauliWord("X", "X"), PauliWord("Y", "Y")])
    for outcomes, _ in tree_transcripts(root):
        assert outcomes[0] * outcomes[1] * outcomes[2] == -1


def test_outcome_tree_measures_words_outside_the_square():
    # Y1 is none of the nine PM observables.
    root = qm_outcome_tree([PauliWord("Y", "I")] * 2)
    runs = dict(tree_transcripts(root))
    assert set(runs) == {(+1, +1), (-1, -1)}
    assert all(p == pytest.approx(0.5, abs=1e-12) for p in runs.values())


def test_outcome_tree_rejects_bad_initial_state():
    with pytest.raises(ValueError):
        qm_outcome_tree([])


def _reachable_knowledge(signs):
    """Every knowledge state reachable from the empty one, in discovery order."""
    states = [frozenset()]
    for k in states:
        for name in OBSERVABLE_NAMES:
            for _, _, nxt in measure_knowledge(k, name, signs):
                if nxt not in states:
                    states.append(nxt)
    return states


def _projector(name, v):
    return (np.eye(4) + v * OBSERVABLES[name].matrix()) / 2


def _density(k):
    """I/4 projected onto the fixed values of k, renormalized."""
    rho = maximally_mixed()
    for name, v in k:
        rho = _projector(name, v) @ rho @ _projector(name, v)
    return rho / np.trace(rho).real


def test_knowledge_rule_is_the_lueders_rule_on_every_reachable_state():
    # Induction on the length: the empty state is I/4, and from each of the
    # 43 reachable states every measurement's Lueders branches are exactly
    # the rule's branches, so the rule equals QM at every length.
    states = _reachable_knowledge(PRESCRIBED_SIGN)
    assert Counter(len(k) for k in states) == {0: 1, 1: 18, 3: 24}
    assert np.array_equal(_density(frozenset()), maximally_mixed())
    for k in states:
        rho = _density(k)
        for name in OBSERVABLE_NAMES:
            lueders = {}
            for v in (+1, -1):
                proj = _projector(name, v)
                p = np.trace(proj @ rho).real
                if p != 0:
                    lueders[v] = (p, proj @ rho @ proj / p)
            branches = measure_knowledge(k, name)
            assert [v for v, _, _ in branches] == list(lueders), (k, name)
            for v, w, nxt in branches:
                p, post = lueders[v]
                assert w == p
                assert np.array_equal(post, _density(nxt)), (k, name, v)


def test_knowledge_runs_equal_the_float_oracle():
    short = [
        seq for n in (1, 2, 3) for seq in itertools.product(OBSERVABLE_NAMES, repeat=n)
    ]
    length4 = itertools.islice(itertools.product(OBSERVABLE_NAMES, repeat=4), 0, None, 37)
    for seq in [*short, *length4]:
        exact = {outs: float(w) for outs, w in knowledge_runs(seq).items()}
        assert exact == dict(tree_transcripts(qm_outcome_tree(seq))), seq


def test_knowledge_rule_accepts_only_the_nine_names():
    with pytest.raises(ValueError, match="not a PM observable"):
        measure_knowledge(frozenset(), "Y1")
    with pytest.raises(ValueError, match="not a PM observable"):
        knowledge_runs(["Z1", PauliWord("Z", "I")])


def test_ks_parity_scan_counts():
    # Independent recount with a local loop, then the library value.
    satisfying = 0
    for bits in itertools.product((+1, -1), repeat=9):
        t = (bits[0:3], bits[3:6], bits[6:9])
        rows_ok = all(t[r][0] * t[r][1] * t[r][2] == +1 for r in range(3))
        cols = [t[0][c] * t[1][c] * t[2][c] for c in range(3)]
        if rows_ok and cols[0] == +1 and cols[1] == +1 and cols[2] == -1:
            satisfying += 1
    assert satisfying == 0
    summary = ks_scan_summary()
    assert summary["qm_satisfying"] == 0
    assert summary["all_plus_satisfying"] == 16


def test_ks_scan_summary_parity():
    summary = ks_scan_summary()
    assert summary["qm_satisfying"] == 0
    assert summary["all_plus_satisfying"] == 16
    assert sum(summary["minus_product_histogram"].values()) == 512
    assert all(int(k) % 2 == 0 for k in summary["minus_product_histogram"])
    assert summary["six_product_values"] == [1]
    assert summary["minus_product_histogram"] == {"0": 16, "2": 240, "4": 240, "6": 16}
