"""Toy models and exhaustive verification for the Peres-Mermin square.

The package has three layers: an exact quantum oracle, the knowledge-state
rule of `pauli`; the noncontextual toy model and its contextual 32-state
extension as stochastic Mealy machines (`toy`, `extension`, `machine`);
and an exhaustive verifier plus bounded machine-family search (`verify`).
The `pmtoy` command line drives all of it.  Import names from their
modules: `pmtoy.pauli`, `.machine`, `.toy`, `.extension`, `.verify` and `.cli`.
"""
