"""Dense statevector simulator with vectorised NumPy gate kernels.

Design notes (following the HPC guide's advice):

* The state is one flat ``complex128`` array of length ``2**n``; gate
  application reshapes it to a ``(2,)*n`` *view* (no copy) and contracts the
  gate tensor over the target axes with ``np.tensordot`` -- a single BLAS-
  backed operation instead of a Python loop over amplitudes.
* Qubit ``q`` corresponds to bit ``q`` of the basis-state index
  (little-endian, Qiskit convention), i.e. tensor axis ``n - 1 - q``.
* Allocation grows the state lazily via a Kronecker product with |0>;
  release measures the qubit away so slots can be reused -- this is what
  lets the runtime support *on-the-fly allocation for static qubit
  addresses* (paper, Section IV-A).
* :meth:`StatevectorSimulator.apply_gate` looks each ``(width, gate,
  qubits)`` up in one bounded module-level kernel table.  The argument
  checks run once, when a key is built.  A permutation gate (x, cnot,
  swap, ccx) is one gather ``state[index]``; a diagonal gate (z, rz, cz,
  ...) is one multiply ``phases * state``; dense gates keep the slice
  kernels of :meth:`~StatevectorSimulator.apply_matrix`.  Both shortcuts
  give the dense arithmetic's amplitudes up to the sign of a zero.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.sim.gates import DENSE, PERMUTATION, get_gate, gate_matrix
from repro.sim.sampling import ZERO_COLUMN, render_counts, table_columns

_ATOL = 1e-12


def is_superposed(p1: float) -> bool:
    """Does a qubit with ``P(1) = p1`` need a random draw to measure or
    reset?  The one tolerance every reset uses."""
    return _ATOL < p1 < 1.0 - _ATOL


def _two_qubit_update(view: np.ndarray, matrix: np.ndarray, q0_is_high: bool) -> None:
    """Apply a 4x4 unitary through a ``(high, 2, mid, 2, low)`` view.

    ``view`` has the *high* target qubit on axis -4 and the *low* one on
    axis -2 (spectator axes elsewhere).  The arithmetic is a fixed-order
    elementwise expansion, so the fused and unfused per-shot paths
    reproduce bit-identical amplitudes from the same matrices.
    """
    s = [
        view[..., 0, :, 0, :].copy(),
        view[..., 0, :, 1, :].copy(),
        view[..., 1, :, 0, :].copy(),
        view[..., 1, :, 1, :].copy(),
    ]
    # Matrix index ordering puts qubits[0] in the leading (most significant)
    # position; map each (bit_high, bit_low) slice to its matrix index.
    if q0_is_high:
        order = [0, 1, 2, 3]  # (b_q0, b_q1) == (b_high, b_low)
    else:
        order = [0, 2, 1, 3]  # qubits[0] is the low axis: swap middle rows
    src = [s[order[0]], s[order[1]], s[order[2]], s[order[3]]]
    for out_index in range(4):
        row = matrix[out_index]
        combined = row[0] * src[0] + row[1] * src[1] + row[2] * src[2] + row[3] * src[3]
        slot = order[out_index]
        view[..., slot >> 1, :, slot & 1, :] = combined


def _check_targets(matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> None:
    """The shape, range and duplicate checks of one matrix application."""
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {matrix.shape} does not match {k} qubits")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise IndexError(f"qubit {q} out of range (have {num_qubits})")
    if len(set(qubits)) != k:
        raise ValueError(f"duplicate target qubits: {qubits}")


#: Widest register whose gates get a cached index array.  Wider registers
#: run permutation and diagonal gates through the slice kernels.  The
#: gather beat the slice kernels at every width of the sweep in
#: EXPERIMENTS.md ("Gate kernels by register width", 3 to 18 qubits), so
#: the cap bounds memory, not time: one index array is ``8 * 2**12`` =
#: 32 KiB here, and uncapped arrays raised ``frontend_mix``'s peak RSS.
KERNEL_INDEX_MAX_QUBITS = 12

#: Entries the kernel table keeps; the oldest is dropped first.  At most
#: ``KERNEL_TABLE_SIZE * 32 KiB`` = 8 MiB of index arrays.
KERNEL_TABLE_SIZE = 256


class _Kernel(NamedTuple):
    """One checked ``(width, gate, qubits)`` key's kernel."""

    kind: str
    num_params: int
    #: Permutation: the source amplitude of each amplitude.  Diagonal: the
    #: matrix row of each amplitude.  ``None``: run the slice kernels.
    index: Optional[np.ndarray]


_KERNELS: Dict[Tuple[int, str, Tuple[int, ...]], _Kernel] = {}
_KERNELS_LOCK = threading.Lock()  # guards the evict-then-insert of a build


def _build_kernel(key: Tuple[int, str, Tuple[int, ...]], matrix: np.ndarray) -> _Kernel:
    """Check one key and build its kernel; raises what ``apply_matrix``
    would, and caches nothing then."""
    n, name, qubits = key
    _check_targets(matrix, list(qubits), n)
    spec = get_gate(name)
    index = None
    if spec.kind != DENSE and n <= KERNEL_INDEX_MAX_QUBITS:
        amplitudes = np.arange(1 << n)
        # Each amplitude's matrix row: its target bits, qubits[0] leading.
        index = np.zeros(1 << n, dtype=np.intp)
        for q in qubits:
            index = (index << 1) | ((amplitudes >> q) & 1)
        if spec.kind == PERMUTATION:
            # Row r of a permutation matrix reads the one column holding a
            # 1, so each amplitude reads the one whose target bits spell it.
            column = np.argmax(matrix != 0, axis=1)[index]
            index = amplitudes & ~sum(1 << q for q in qubits)
            for position, q in enumerate(reversed(qubits)):
                index |= ((column >> position) & 1) << q
    kernel = _Kernel(spec.kind, spec.num_params, index)
    with _KERNELS_LOCK:
        while len(_KERNELS) >= KERNEL_TABLE_SIZE:
            del _KERNELS[next(iter(_KERNELS))]
        _KERNELS[key] = kernel
    return kernel


def _apply_dense(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], n: int
) -> np.ndarray:
    """General k-qubit tensordot path on one flat state (k >= 3)."""
    k = len(qubits)
    psi = state.reshape((2,) * n)
    axes = [n - 1 - q for q in qubits]
    tensor = matrix.reshape((2,) * (2 * k))
    psi = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), axes))
    psi = np.moveaxis(psi, list(range(k)), axes)
    return np.ascontiguousarray(psi).reshape(-1)


class StatevectorSimulator:
    """Exact dense simulation; memory and time grow as ``2**num_qubits``."""

    def __init__(self, num_qubits: int = 0, seed: Optional[int] = None, max_qubits: int = 26):
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        if num_qubits > max_qubits:
            raise ValueError(
                f"{num_qubits} qubits exceeds max_qubits={max_qubits} "
                f"({8 * 2 ** (num_qubits + 1)} bytes of state)"
            )
        self.max_qubits = max_qubits
        self._num_qubits = num_qubits
        self._rng = np.random.default_rng(seed)
        self._state = np.zeros(1 << num_qubits, dtype=np.complex128)
        self._state[0] = 1.0
        self._free_slots: List[int] = []

    # -- inspection -------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def state(self) -> np.ndarray:
        """The live amplitude array (a view; do not mutate)."""
        return self._state

    def probabilities(self) -> np.ndarray:
        return np.abs(self._state) ** 2

    def probability_of_one(self, qubit: int) -> float:
        self._check_qubit(qubit)
        return self._p1(qubit)

    def _p1(self, qubit: int) -> float:
        view = self._axis_view(qubit)
        # view has shape (high, 2, low); slice [:, 1, :] selects bit=1.
        return float(np.sum(np.abs(view[:, 1, :]) ** 2))

    def amplitude(self, basis_state: int) -> complex:
        return complex(self._state[basis_state])

    def norm(self) -> float:
        return float(np.linalg.norm(self._state))

    # -- allocation -------------------------------------------------------------
    def allocate_qubit(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        if self._num_qubits >= self.max_qubits:
            raise MemoryError(
                f"cannot grow beyond max_qubits={self.max_qubits}"
            )
        # New qubit becomes the highest bit: state' = |0> (x) state, which for
        # little-endian indexing is just zero-padding the upper half.
        new = np.zeros(len(self._state) * 2, dtype=np.complex128)
        new[: len(self._state)] = self._state
        self._state = new
        slot = self._num_qubits
        self._num_qubits += 1
        return slot

    def release_qubit(self, slot: int) -> None:
        self._check_qubit(slot)
        if slot in self._free_slots:
            raise ValueError(f"double release of qubit slot {slot}")
        self._reset(slot)
        self._free_slots.append(slot)

    def ensure_qubits(self, count: int) -> None:
        """Grow to at least ``count`` allocated slots (static addressing)."""
        while self._num_qubits - len(self._free_slots) < count and (
            self._free_slots or self._num_qubits < count
        ):
            if self._num_qubits >= count:
                break
            self.allocate_qubit()

    def load_state(self, amplitudes: np.ndarray) -> None:
        """Replace the register with precomputed amplitudes (a fused
        schedule's prefix state).  Length must match the current
        allocation exactly; callers size the register first."""
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != self._state.shape:
            raise ValueError(
                f"state of length {amplitudes.shape} does not fit a "
                f"{self._num_qubits}-qubit register"
            )
        self._state = amplitudes.copy()

    # -- gate application -------------------------------------------------------
    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self._num_qubits:
            raise IndexError(
                f"qubit {qubit} out of range (have {self._num_qubits})"
            )

    def _axis_view(self, qubit: int) -> np.ndarray:
        """View the flat state as (high, 2, low) with the target in the middle."""
        low = 1 << qubit
        high = len(self._state) // (2 * low)
        return self._state.reshape(high, 2, low)

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a ``2**k x 2**k`` unitary to ``k`` target qubits.

        ``qubits[0]`` is the *most significant* qubit of the matrix's index
        ordering, matching how :func:`repro.sim.gates.controlled` places
        controls in the leading position.
        """
        _check_targets(matrix, qubits, self._num_qubits)
        self._apply(matrix, qubits)

    def _apply(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """The slice kernels, on already-checked targets."""
        k = len(qubits)
        if k == 1:
            # Fast path: single-qubit gate as one reshaped matmul.
            view = self._axis_view(qubits[0])
            # new[h, i, l] = sum_j U[i, j] view[h, j, l]; the two slices of
            # the target axis are combined explicitly so the update can be
            # written back through the view without an aliasing hazard.
            a = view[:, 0, :]
            b = view[:, 1, :]
            new_a = matrix[0, 0] * a + matrix[0, 1] * b
            new_b = matrix[1, 0] * a + matrix[1, 1] * b
            view[:, 0, :] = new_a
            view[:, 1, :] = new_b
            return

        if k == 2:
            # Fast path: elementwise 4-slice expansion (no tensordot, no
            # copy of the full state back and forth); see _two_qubit_update.
            hi, lo = max(qubits), min(qubits)
            low = 1 << lo
            mid = 1 << (hi - lo - 1)
            high = len(self._state) // (4 * low * mid)
            view = self._state.reshape(high, 2, mid, 2, low)
            _two_qubit_update(view, matrix, q0_is_high=qubits[0] == hi)
            return

        self._state = _apply_dense(self._state, matrix, qubits, self._num_qubits)

    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> None:
        key = (self._num_qubits, name, tuple(qubits))
        kernel = _KERNELS.get(key)
        if kernel is None:
            kernel = _build_kernel(key, gate_matrix(name, params))
        elif len(params) != kernel.num_params:
            gate_matrix(name, params)  # raises the catalogue's arity error
        index = kernel.index
        if index is None:
            self._apply(gate_matrix(name, params), key[2])
        elif kernel.kind == PERMUTATION:
            self._state = self._state[index]
        else:
            # Phases on the left: the dense kernels compute ``m * a`` with
            # the matrix entry first, and numpy's complex product is not
            # bit-symmetric in its operands.
            phases = gate_matrix(name, params).diagonal()[index]
            np.multiply(phases, self._state, out=self._state)

    # -- measurement -------------------------------------------------------------
    def measure(self, qubit: int) -> int:
        self._check_qubit(qubit)
        p1 = self._p1(qubit)
        outcome = int(self._rng.random() < p1)
        self._collapse(qubit, outcome, p1)
        return outcome

    def _collapse(self, qubit: int, outcome: int, p1: float) -> None:
        prob = p1 if outcome else 1.0 - p1
        if prob < _ATOL:
            raise FloatingPointError(
                f"collapse onto outcome {outcome} with probability ~0"
            )
        view = self._axis_view(qubit)
        view[:, 1 - outcome, :] = 0.0
        self._state *= 1.0 / math.sqrt(prob)

    def postselect(self, qubit: int, outcome: int) -> float:
        """Force a measurement outcome; returns its pre-collapse probability."""
        p1 = self.probability_of_one(qubit)
        self._collapse(qubit, outcome, p1)
        return p1 if outcome else 1.0 - p1

    def reset(self, qubit: int) -> None:
        self._check_qubit(qubit)
        self._reset(qubit)

    def _reset(self, qubit: int) -> None:
        p1 = self._p1(qubit)
        if is_superposed(p1):
            outcome = int(self._rng.random() < p1)
            self._collapse(qubit, outcome, p1)
        else:
            outcome = int(p1 >= 0.5)
        if outcome == 1:
            self.apply_gate("x", (qubit,))

    def sampling_probabilities(self) -> np.ndarray:
        """The probabilities :meth:`sample_basis` draws from, renormalised."""
        probs = self.probabilities()
        total = float(probs.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            probs = probs / total
        return probs

    def sample_basis(self, shots: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``shots`` terminal outcomes without collapsing; returns the
        distinct basis indices drawn (ascending) and their counts."""
        probs = self.sampling_probabilities()
        outcomes = self._rng.choice(len(probs), size=shots, p=probs)
        return np.unique(outcomes, return_counts=True)

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None) -> Dict[str, int]:
        """Sample terminal measurement outcomes without collapsing.

        Returns a ``bitstring -> count`` histogram; bit order in the string
        is qubit ``n-1 .. 0`` (most significant first), matching Qiskit.
        """
        basis, counts = self.sample_basis(shots)
        qubits = list(qubits) if qubits is not None else list(range(self._num_qubits))
        columns = table_columns({k: k for k in range(len(qubits))}, ZERO_COLUMN)
        return render_counts(basis, counts, qubits, columns)
