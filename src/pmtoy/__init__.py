"""Toy models and exhaustive verification for the Peres-Mermin square.

The package has three layers: an exact two-qubit operator oracle
(`pauli`), the noncontextual toy model and its contextual 32-state
extension as stochastic Mealy machines (`toy`, `extension`, `machine`),
and an exhaustive verifier plus bounded machine-family search (`verify`).
The `pmtoy` command line drives all of it.
"""

from .extension import (
    ALIASES,
    ALL_EXT,
    DRAWN_EDGES,
    LABEL_DISCREPANCIES,
    ExtOnticState,
    ext_table,
    ext_value,
    extended_machine,
    four_state_machine,
    variant_machine,
)
from .machine import MealyMachine, Transcript, enumerate_transcripts, step
from .pauli import (
    OBSERVABLE_NAMES,
    OBSERVABLES,
    PauliWord,
    commutes,
    context_product_sign,
    ks_scan_summary,
    maximally_mixed,
    qm_outcome_tree,
    tree_transcripts,
)
from .toy import (
    ALL_ONTIC,
    OnticState,
    ToyBitOntic,
    compact,
    ontic_machine,
    spekkens_machine,
    table_of,
    toybit_measure,
)
from .verify import (
    SearchOutcome,
    VerificationReport,
    Violation,
    check_transcript,
    refute_variant,
    search_machines,
    verify_machine,
)

__version__ = "0.1.0"
