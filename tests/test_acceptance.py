"""Acceptance criteria, one test per criterion with its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.  Every tolerance and time bound is pinned here.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from pm_figures import FIGURE_16
from pmtoy import pauli
from pmtoy.extension import (
    ALIASES,
    ALL_EXT,
    DRAWN_EDGES,
    LABEL_DISCREPANCIES,
    ext_value,
    extended_machine,
    four_state_machine,
    skeleton_next,
)
from pmtoy.machine import Transcript
from pmtoy.pauli import COMMUTING, knowledge_runs
from pmtoy.toy import ALL_ONTIC, compact, coset, observable_value, spekkens_machine, table_of
from pmtoy.verify import (
    CONTEXT_PRODUCT,
    check_transcript,
    family_cplus16,
    family_paper4,
    refute_variant,
    search_machines,
    verify_machine,
)


@contextmanager
def criterion(number, description, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    )
    print(f"PASS  criterion {number}: {description} ({elapsed:.2f}s < {budget_s}s)")


def test_criterion_1_operator_identities():
    with criterion(1, "six context operator products are +/-identity exactly", 1.0):
        for ctx in ("row1", "row2", "row3", "col1", "col2"):
            words = [pauli.OBSERVABLES[n] for n in pauli.CONTEXT_NAMES[ctx]]
            product = words[0].matrix() @ words[1].matrix() @ words[2].matrix()
            assert np.array_equal(product, np.eye(4))
        words = [pauli.OBSERVABLES[n] for n in pauli.CONTEXT_NAMES["col3"]]
        product = words[0].matrix() @ words[1].matrix() @ words[2].matrix()
        assert np.array_equal(product, -np.eye(4))


# Grid positions (row, col) of each context, rows then columns, written out
# here rather than read from the table under test.
_ROWS_THEN_COLUMNS = (
    ((0, 0), (0, 1), (0, 2)),
    ((1, 0), (1, 1), (1, 2)),
    ((2, 0), (2, 1), (2, 2)),
    ((0, 0), (1, 0), (2, 0)),
    ((0, 1), (1, 1), (2, 1)),
    ((0, 2), (1, 2), (2, 2)),
)


def test_criterion_2_ks_impossibility():
    with criterion(2, "0 of 512 sign tables satisfy QM signs; all six-products +1", 1.0):
        satisfying = 0
        for bits in itertools.product((+1, -1), repeat=9):
            table = (bits[0:3], bits[3:6], bits[6:9])
            products = []
            for positions in _ROWS_THEN_COLUMNS:
                p = 1
                for r, c in positions:
                    p *= table[r][c]
                products.append(p)
            total = 1
            for p in products:
                total *= p
            assert total == +1
            if products == [+1, +1, +1, +1, +1, -1]:
                satisfying += 1
        assert satisfying == 0
        assert pauli.ks_scan_summary()["qm_satisfying"] == 0


def test_criterion_3_toy_model_fidelity():
    with criterion(3, "16 tables match the figure; spekkens16 preserves values", 1.0):
        assert [compact(table_of(s)) for s in ALL_ONTIC] == FIGURE_16
        for s in ALL_ONTIC:
            assert set(pauli.context_products(table_of(s)).values()) == {+1}
        m = spekkens_machine()
        for si, s in enumerate(ALL_ONTIC):
            for oi, name in enumerate(pauli.OBSERVABLE_NAMES):
                successors = m.successors(si, oi)
                assert set(successors) == {
                    m.state_index(t.label) for t in coset(s, name)
                }
                for t in successors:
                    assert m.outputs[t][oi] == m.outputs[si][oi]
                for t_state in coset(s, name):
                    for other in COMMUTING[name]:
                        assert observable_value(t_state, other) == observable_value(
                            s, other
                        )


def test_criterion_4_spekkens_refutation():
    with criterion(4, "spekkens16 at L=3 fails on a column-3 permutation", 5.0):
        report = verify_machine(spekkens_machine(), 3)
        assert not report.passed
        col3 = set(pauli.CONTEXT_NAMES["col3"])
        v = report.violations[0]
        assert v.kind == CONTEXT_PRODUCT
        assert set(v.sequence) == col3 and len(v.sequence) == 3
        assert v.observed == +1 and v.expected == -1


def test_criterion_5_extension_validity_deterministic_depth6():
    with criterion(5, "extended32 skeleton: zero violations at L=6", 60.0):
        report = verify_machine(extended_machine(False), 6)
        assert report.passed
        assert report.sequences_checked == 32 * sum(9**k for k in range(1, 7))


def test_criterion_5_extension_validity_randomized_depth4():
    with criterion(5, "extended32 randomized: zero violations at L=4", 120.0):
        report = verify_machine(extended_machine(True), 4)
        assert report.passed


def test_criterion_6_diagram_regression():
    with criterion(6, "all eight drawn transitions reproduced; one known label gap", 1.0):
        p4 = four_state_machine()
        output_matches = 0
        for src, obs, drawn, dst in DRAWN_EDGES:
            assert skeleton_next(ALIASES[src], obs) == ALIASES[dst]
            assert p4.successors(src, obs) == (p4.state_index(dst),)
            assert p4.output(src, obs) == ext_value(ALIASES[src], obs)
            if p4.output(src, obs) == drawn:
                output_matches += 1
        assert output_matches == 7
        assert LABEL_DISCREPANCIES == (("b", "X1Z2", -1, +1),)
        assert four_state_machine().output("b", "X1Z2") == +1


def test_criterion_7_no_go_replays():
    with criterion(7, "both rejected variants refuted within length 4", 5.0):
        for kind in ("single_trigger", "same_destination"):
            v = refute_variant(kind)
            assert len(v.sequence) <= 4
            assert v.kind == CONTEXT_PRODUCT
            assert {v.sequence[p] for p in v.positions} == set(
                pauli.CONTEXT_NAMES["col3"]
            )
            assert v.observed == +1
        assert verify_machine(extended_machine(False), 4).passed


def test_criterion_8_search_rediscovery():
    with criterion(8, "search rediscovers the diagram over {a,b,c,d} at L=4", 60.0):
        outcome = search_machines(family_paper4(), 4, budget=500_000)
        assert outcome.exhausted and outcome.completions >= 1
        assert any(
            all(
                m.successors(src, obs) == (m.state_index(dst),)
                for src, obs, _, dst in DRAWN_EDGES
            )
            for m in outcome.machines
        )
    with criterion(8, "search certifies no c=+1-only machine exists at L=3", 60.0):
        outcome = search_machines(family_cplus16(), 3, budget=500_000)
        assert outcome.exhausted and outcome.completions == 0


def test_criterion_9_oracle_soundness():
    with criterion(9, "every exact quantum run of all 9^4 sequences passes the checks", 120.0):
        count = 0
        for seq in itertools.product(pauli.OBSERVABLE_NAMES, repeat=4):
            runs = knowledge_runs(seq)
            assert sum(runs.values()) == 1
            for outcomes, weight in runs.items():
                assert weight > 0
                t = Transcript(tuple(seq), outcomes, weight, "qm")
                assert check_transcript(t) == []
                count += 1
        assert count >= 9**4


def test_criterion_10_state_count_bookkeeping():
    with criterion(10, "the extension has exactly 32 states, twice the 16", 1.0):
        assert len(extended_machine(False).states) == 32
        assert len(extended_machine(True).states) == 32
        assert len(spekkens_machine().states) == 16
        assert len(ALL_EXT) == 2 * len(ALL_ONTIC)
