"""The traced benchmark wraps ehinfer names; each must still exist.

`bench/layers.install` swaps public functions and methods (for example
`mdp.build_inc_iag_mdp`, `oracle.approx_operator`,
`harness.exit_probability_matrix`) for timing wrappers. A rename or
deletion of one of them fails here, not only in the traced benchmark run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
    import layers
    import tracer

    with tracer.Patches() as patches:
        layers.install(tracer.Tracer(), patches)
    assert patches.restored
