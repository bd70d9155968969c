"""Score-ordered blockchain with witness attestation, plus its test bench.

The package splits into protocol code (types, scoring, witness flow, ledger,
incentives), a seeded lossy-network simulator, and a small analysis layer
that computes the closed-form safety numbers and checks them against Monte
Carlo runs. Import from the modules themselves (``from scorechain.simnet
import run_simulation``); the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
