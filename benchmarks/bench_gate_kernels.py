"""EX5 ablation: statevector gate kernels by register width.

Shape claims (DESIGN.md, "Gate kernels"):
* the gather (permutation gates) and the phase multiply (diagonal gates)
  give the slice kernels' amplitudes bit for bit at every width;
* on small registers, where per-call overhead dominates, each is at least
  twice as fast as the slice kernels.

The printed table is the sweep behind
``repro.sim.statevector.KERNEL_INDEX_MAX_QUBITS``: widths 3 to 18, with the
cap lifted so the table path runs at every width.  The slice arm is
``apply_matrix(gate_matrix(...))``, the path every gate took before the
kernel table.
"""

import numpy as np
import pytest

from repro.sim import statevector
from repro.sim.gates import gate_matrix
from repro.sim.statevector import StatevectorSimulator

from conftest import measure_median, report

WIDTHS = range(3, 19)

GATES = (("x", (0,), ()), ("cnot", (1, 0), ()), ("rz", (1,), (0.3,)))


@pytest.fixture
def uncapped(monkeypatch):
    monkeypatch.setattr(statevector, "KERNEL_INDEX_MAX_QUBITS", max(WIDTHS))
    monkeypatch.setattr(statevector, "_KERNELS", {})


def _block(calls, apply):
    def run():
        for _ in range(calls):
            apply()
    return run


def test_gate_kernel_width_sweep(uncapped):
    rng = np.random.default_rng(0)
    rows = []
    for n in WIDTHS:
        calls = max(2, 1024 >> max(0, n - 8))
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        row = [n]
        for name, qubits, params in GATES:
            table = StatevectorSimulator(n)
            slices = StatevectorSimulator(n)
            table.load_state(state)
            slices.load_state(state)
            table.apply_gate(name, qubits, params)
            slices.apply_matrix(gate_matrix(name, params), qubits)
            assert np.array_equal(table.state, slices.state)

            matrix = lambda: gate_matrix(name, params)  # noqa: E731
            fast = measure_median(
                _block(calls, lambda: table.apply_gate(name, qubits, params)),
                repeats=5,
            ).median / calls
            slow = measure_median(
                _block(calls, lambda: slices.apply_matrix(matrix(), qubits)),
                repeats=5,
            ).median / calls
            if n <= 6:
                assert slow > 2 * fast, (name, n, fast, slow)
            row.append(f"{fast * 1e6:.1f} / {slow * 1e6:.1f}")
        rows.append(row)
    report(
        "Gate kernels by register width: table path / slice kernels, us per call",
        rows,
        header=("qubits",) + tuple(name for name, _, _ in GATES),
    )
