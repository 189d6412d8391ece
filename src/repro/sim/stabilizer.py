"""Aaronson-Gottesman CHP stabilizer simulator.

Tracks the stabilizer group of the state in a binary tableau; Clifford
gates (H, S, CNOT and compositions) are O(n) bit operations, measurement is
O(n^2).  This is the backend that lets the runtime execute Clifford QIR
workloads (GHZ states, repetition-code QEC) on *thousands* of qubits where
the statevector backend saturates around 25 -- the scaling contrast the
EX5 benchmark reports.

Tableau layout (Aaronson & Gottesman, PRA 70, 052328 (2004)): rows
``0..n-1`` are destabilizers, rows ``n..2n-1`` stabilizers; ``x[i,j]`` /
``z[i,j]`` are the Pauli-X/Z components of generator i on qubit j and
``r[i]`` its sign bit.  All stored as NumPy bool arrays so gate updates are
whole-row vector ops (HPC guide: vectorise, operate in place).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np


class StabilizerSimulator:
    def __init__(self, num_qubits: int = 0, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)
        self._n = 0
        self._capacity = max(1, num_qubits)
        self._alloc(self._capacity)
        self._free_slots: List[int] = []
        for _ in range(num_qubits):
            self.allocate_qubit()

    def _alloc(self, capacity: int) -> None:
        size = 2 * capacity
        self.x = np.zeros((size, capacity), dtype=bool)
        self.z = np.zeros((size, capacity), dtype=bool)
        self.r = np.zeros(size, dtype=bool)

    @property
    def num_qubits(self) -> int:
        return self._n

    # -- allocation -------------------------------------------------------------
    def allocate_qubit(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        if self._n == self._capacity:
            self._grow(self._capacity * 2)
        slot = self._n
        self._n += 1
        # Re-seat identity rows for the new qubit: destabilizer X_slot,
        # stabilizer Z_slot (state |0>).
        self._rebuild_row_layout()
        return slot

    def _grow(self, capacity: int) -> None:
        old_n = self._n
        old_x, old_z, old_r = self.x, self.z, self.r
        self._capacity = capacity
        self._alloc(capacity)
        # copy destabilizers then stabilizers into the new row layout
        self.x[:old_n, :old_n] = old_x[:old_n, :old_n]
        self.z[:old_n, :old_n] = old_z[:old_n, :old_n]
        self.r[:old_n] = old_r[:old_n]
        self.x[capacity : capacity + old_n, :old_n] = old_x[old_n : 2 * old_n, :old_n]
        self.z[capacity : capacity + old_n, :old_n] = old_z[old_n : 2 * old_n, :old_n]
        self.r[capacity : capacity + old_n] = old_r[old_n : 2 * old_n]

    def _rebuild_row_layout(self) -> None:
        n, cap = self._n, self._capacity
        q = n - 1
        # destabilizer row q: X_q ; stabilizer row cap+q: Z_q
        self.x[q, :] = False
        self.z[q, :] = False
        self.x[q, q] = True
        self.r[q] = False
        self.x[cap + q, :] = False
        self.z[cap + q, :] = False
        self.z[cap + q, q] = True
        self.r[cap + q] = False

    def release_qubit(self, slot: int) -> None:
        self._check(slot)
        self.reset(slot)
        if slot in self._free_slots:
            raise ValueError(f"double release of qubit slot {slot}")
        self._free_slots.append(slot)

    def ensure_qubits(self, count: int) -> None:
        while self._n < count:
            self.allocate_qubit()

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self._n:
            raise IndexError(f"qubit {qubit} out of range (have {self._n})")

    def _rows(self) -> np.ndarray:
        """Indices of the live destabilizer+stabilizer rows."""
        cap = self._capacity
        return np.concatenate(
            [np.arange(self._n), np.arange(cap, cap + self._n)]
        )

    # -- Clifford gates -----------------------------------------------------------
    def _h(self, q: int) -> None:
        rows = self._rows()
        xs = self.x[rows, q].copy()
        zs = self.z[rows, q].copy()
        self.r[rows] ^= xs & zs
        self.x[rows, q] = zs
        self.z[rows, q] = xs

    def _s(self, q: int) -> None:
        rows = self._rows()
        xs = self.x[rows, q]
        self.r[rows] ^= xs & self.z[rows, q]
        self.z[rows, q] ^= xs

    def _cnot(self, control: int, target: int) -> None:
        rows = self._rows()
        xc = self.x[rows, control]
        zt = self.z[rows, target]
        self.r[rows] ^= xc & zt & (self.x[rows, target] ^ self.z[rows, control] ^ True)
        self.x[rows, target] ^= xc
        self.z[rows, control] ^= zt

    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> None:
        from repro.sim.gates import canonical_name

        name = canonical_name(name)
        for q in qubits:
            self._check(q)
        if params:
            raise ValueError(
                f"stabilizer backend cannot apply parameterised gate {name!r}"
            )
        if name == "i":
            return
        if name == "h":
            (q,) = qubits
            self._h(q)
        elif name == "s":
            (q,) = qubits
            self._s(q)
        elif name == "s_adj":
            (q,) = qubits
            self._s(q)
            self._s(q)
            self._s(q)
        elif name == "x":
            (q,) = qubits
            self._h(q)
            self._s(q)
            self._s(q)
            self._h(q)
        elif name == "z":
            (q,) = qubits
            self._s(q)
            self._s(q)
        elif name == "y":
            (q,) = qubits
            # Y = i X Z; global phase is untracked in the tableau.
            self.apply_gate("z", [q])
            self.apply_gate("x", [q])
        elif name == "sx":
            (q,) = qubits
            # sx = H S H up to global phase
            self._h(q)
            self._s(q)
            self._h(q)
        elif name == "cnot":
            c, t = qubits
            self._cnot(c, t)
        elif name == "cz":
            c, t = qubits
            self._h(t)
            self._cnot(c, t)
            self._h(t)
        elif name == "cy":
            c, t = qubits
            self._s(t)
            self._s(t)
            self._s(t)
            self._cnot(c, t)
            self._s(t)
        elif name == "swap":
            a, b = qubits
            self._cnot(a, b)
            self._cnot(b, a)
            self._cnot(a, b)
        else:
            raise ValueError(f"gate {name!r} is not Clifford; use the statevector backend")

    # -- measurement -------------------------------------------------------------
    def _row_mult(self, h: int, i: int) -> None:
        """Left-multiply generator row h by row i (h <- i * h), updating sign."""
        x_i, z_i = self.x[i], self.z[i]
        x_h, z_h = self.x[h], self.z[h]
        # Sum of per-qubit phase exponents g() as defined by Aaronson-Gottesman.
        g = np.zeros(self._capacity, dtype=np.int64)
        one_one = x_i & z_i  # Y
        g += np.where(one_one, (z_h.astype(np.int64) - x_h.astype(np.int64)), 0)
        x_only = x_i & ~z_i  # X
        g += np.where(x_only, z_h.astype(np.int64) * (2 * x_h.astype(np.int64) - 1), 0)
        z_only = ~x_i & z_i  # Z
        g += np.where(z_only, x_h.astype(np.int64) * (1 - 2 * z_h.astype(np.int64)), 0)
        total = 2 * int(self.r[h]) + 2 * int(self.r[i]) + int(g.sum())
        self.r[h] = (total % 4) == 2
        self.x[h] ^= x_i
        self.z[h] ^= z_i

    def measure(self, qubit: int) -> int:
        self._check(qubit)
        cap, n = self._capacity, self._n
        stab_rows = np.arange(cap, cap + n)
        candidates = stab_rows[self.x[stab_rows, qubit]]
        if len(candidates):
            # Random outcome.
            p = int(candidates[0])
            rows = self._rows()
            for i in rows:
                if i != p and self.x[i, qubit]:
                    self._row_mult(int(i), p)
            # destabilizer row (p - cap) <- old stabilizer row p
            self.x[p - cap] = self.x[p]
            self.z[p - cap] = self.z[p]
            self.r[p - cap] = self.r[p]
            self.x[p] = False
            self.z[p] = False
            self.z[p, qubit] = True
            outcome = int(self._rng.integers(0, 2))
            self.r[p] = bool(outcome)
            return outcome
        # Deterministic outcome: accumulate product of stabilizers whose
        # destabilizer partner anticommutes with Z_qubit.
        scratch = 2 * cap - 1  # use the last row as scratch if free
        # build scratch row manually
        sx = np.zeros(self._capacity, dtype=bool)
        sz = np.zeros(self._capacity, dtype=bool)
        sr = 0
        for i in range(n):
            if self.x[i, qubit]:
                # multiply scratch by stabilizer row cap + i
                j = cap + i
                g = 0
                x_i, z_i = self.x[j], self.z[j]
                one_one = x_i & z_i
                g += int(np.sum(np.where(one_one, sz.astype(np.int64) - sx.astype(np.int64), 0)))
                x_only = x_i & ~z_i
                g += int(np.sum(np.where(x_only, sz.astype(np.int64) * (2 * sx.astype(np.int64) - 1), 0)))
                z_only = ~x_i & z_i
                g += int(np.sum(np.where(z_only, sx.astype(np.int64) * (1 - 2 * sz.astype(np.int64)), 0)))
                total = 2 * sr + 2 * int(self.r[j]) + g
                sr = 1 if (total % 4) == 2 else 0
                sx ^= x_i
                sz ^= z_i
        return sr

    def reset(self, qubit: int) -> None:
        if self.measure(qubit) == 1:
            self.apply_gate("x", [qubit])

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None) -> Dict[str, int]:
        """Sample terminal measurements by repeated simulate-and-restore.

        Measurement collapses the tableau, so each shot measures a *copy*.
        """
        qubits = list(qubits) if qubits is not None else list(range(self._n))
        histogram: Dict[str, int] = {}
        saved = (self.x.copy(), self.z.copy(), self.r.copy())
        for _ in range(shots):
            bits = "".join(str(self.measure(q)) for q in reversed(qubits))
            histogram[bits] = histogram.get(bits, 0) + 1
            self.x, self.z, self.r = (
                saved[0].copy(),
                saved[1].copy(),
                saved[2].copy(),
            )
        return histogram
