"""The cocycle engine's contract with the benchmark's library calls.

The cocycle-sweep workload in bench/workloads.py calls the engine directly:
_perturbed edits one coset of a copy() and expects verify_relations to
reject it, _pair reads the coset table's elements and the per-coset values
of evaluate_cocycle, and _descend reads the descended value at T^N.  Each of
those operations runs here through the workload's own check, so a broken
contract fails Tier-1 before it reaches a benchmark run.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402

LIBRARY_OPERATIONS = ("perturbed", "pair ", "descent ")


def test_library_operations_pass_their_checks(tmp_path):
    sweep = workloads.CocycleSweep(2001, str(tmp_path))
    ops = [(label, op) for label, op in sweep.operations() if label.startswith(LIBRARY_OPERATIONS)]
    assert len(ops) == 1 + len(sweep.pairs) + len(sweep.cells) == 194
    outputs = {label: op() for label, op in ops}
    assert outputs["perturbed"] is False
    assert sweep.check(outputs) == []
    # the check is live: an accepted perturbation is a failure
    assert sweep.check({**outputs, "perturbed": True})
