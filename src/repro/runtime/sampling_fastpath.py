"""Deferred-measurement sampling: a multi-shot fast path for the runtime.

A base-profile program measures every qubit at the end; re-interpreting it
per shot (the general path, what qir-runner does) re-simulates the same
unitary evolution a thousand times.  When measurements are *terminal* the
quantum state right before them is shot-independent, so the runtime can
evolve once and sample the joint measurement distribution.

Measurement collapses nothing under the deferred-measurement principle:
a measured qubit keeps its value on a wire of its own, and a reset or a
reuse starts a fresh wire (QSSA's value semantics: measuring consumes a
qubit value, reset produces a new one).  So every program whose control
flow never reads a measured value -- mid-circuit measurement, reset and
reuse included -- is sampled from one evolution
(:class:`DeferredMeasurementBackend`).

The fast path is attempted optimistically and *proves its own
applicability while running*: it aborts with :class:`FastPathUnsupported`
the moment the program does something one shared evolution cannot
express --

* reading a result value (``read_result`` / ``result_equal`` feedback),
* a dynamic (``m``-style) result,
* growing a register that holds a deferred wire past
  :data:`MAX_DEFERRED_QUBITS` or ``max_qubits``.

On abort the caller falls back to per-shot interpretation, so the fast
path is sound by construction rather than by up-front program analysis.

:class:`SharedStreamResults` is this fast path's result store: one
instruction stream for many shots.  It records which measurement each
RESULT record names, and the shots' bitstrings are rendered afterwards
through the one output rule
(:func:`~repro.runtime.output.output_columns`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.runtime.output import output_columns
from repro.runtime.results import ResultStore
from repro.runtime.values import IntPtr, ResultPtr
from repro.sim.backend import DelegatingBackend
from repro.sim.sampling import ZERO_COLUMN, render_counts, render_outcomes
from repro.sim.statevector import StatevectorSimulator, is_superposed

#: How far from 1 ``Generator.choice`` lets a probability table sum.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)

#: Distributions with more nonzero outcomes than this are not cached --
#: the wire payload would dwarf the module text and the warm win shrinks
#: as the support grows anyway.
MAX_CACHED_OUTCOMES = 4096


class FastPathUnsupported(Exception):
    """Raised mid-execution when the program is not sampleable."""


#: Widest register that holds a deferred wire: within it every terminal
#: distribution has at most :data:`MAX_CACHED_OUTCOMES` outcomes, so a
#: program that measures, resets or reuses qubits mid-circuit goes warm.
MAX_DEFERRED_QUBITS = MAX_CACHED_OUTCOMES.bit_length() - 1


class DeferredMeasurementBackend(DelegatingBackend):
    """Statevector wrapper that defers every measurement to the end.

    Each program qubit lives on a physical slot of ``inner``.  ``measure``
    collapses nothing and returns the measured slot: the outcome it
    stands for is that slot's bit in each basis state sampled after the
    evolution.  A slot keeps its record to the end, so

    * a gate or measurement on a measured qubit first copies it onto a
      fresh |0> slot (``cnot(old, new)``) and moves the qubit there --
      exact, since after the copy the two wires are symmetric;
    * a reset or release of a measured or superposed qubit moves it onto
      a fresh |0> slot with no copy, and sampling marginalises the slot
      it leaves;
    * a reset or release of a qubit in a basis state stays the inner
      call, which draws nothing.

    Nothing here draws from the RNG, so a warm replay of the captured
    distribution stays bit-exact.  A register holding a slot left behind
    may grow to :data:`MAX_DEFERRED_QUBITS` and ``max_qubits``; past
    either the backend declines.
    """

    def __init__(self, inner: StatevectorSimulator):
        super().__init__(inner)
        self._slot: Dict[int, int] = {}  # program qubit -> slot, where they differ
        self._measured: Set[int] = set()  # slots holding a measurement record
        self._deferred = False  # does the register hold a slot left behind?

    def allocate_qubit(self) -> int:
        return self._grow()

    def release_qubit(self, qubit: int) -> None:
        slot = self._slot.pop(qubit, qubit)
        if self._keeps(slot):
            self._deferred = True
        else:
            self.inner.release_qubit(slot)

    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> None:
        if self._slot or self._measured:
            qubits = [self._live(q) for q in qubits]
        self.inner.apply_gate(name, qubits, params)

    def measure(self, qubit: int) -> int:
        slot = self._live(qubit)
        self._measured.add(slot)
        return slot

    def reset(self, qubit: int) -> None:
        slot = self._slot.get(qubit, qubit)
        if self._keeps(slot):
            self._move(qubit)
        else:
            self.inner.reset(slot)

    def _keeps(self, slot: int) -> bool:
        """Must ``slot`` outlive its qubit's reset: it holds a record, or a
        superposed value each shot would collapse differently?"""
        return slot in self._measured or is_superposed(
            self.inner.probability_of_one(slot)
        )

    def _live(self, qubit: int) -> int:
        """The qubit's slot, copied off its measurement record first."""
        slot = self._slot.get(qubit, qubit)
        if slot in self._measured:
            new = self._move(qubit)
            self.inner.apply_gate("cnot", (slot, new))
            slot = new
        return slot

    def _move(self, qubit: int) -> int:
        """Move the qubit onto a fresh |0> slot."""
        self._deferred = True
        new = self._slot[qubit] = self._grow()
        return new

    def _grow(self) -> int:
        """A fresh slot; a register holding a deferred wire stays within
        the growth cap and ``max_qubits``, or the fast path declines."""
        try:
            slot = self.inner.allocate_qubit()
        except MemoryError:
            if not self._deferred:
                raise  # too wide on every path: the coded allocation error
            raise FastPathUnsupported("deferred wires beyond max_qubits") from None
        if self._deferred and self.inner.num_qubits > MAX_DEFERRED_QUBITS:
            raise FastPathUnsupported(
                f"deferred wires beyond {MAX_DEFERRED_QUBITS} qubits"
            )
        return slot


class SharedStreamResults(ResultStore):
    """The result store of one instruction stream run for many shots.

    A static result holds the index of the measurement that last wrote
    it; ``values[k]`` is what measurement ``k`` returned (a deferred
    slot).  Each RESULT record snapshots
    the column it names at record time (:meth:`read_default`), and
    :meth:`columns` applies the output rule when the run ends.

    Anything one shared stream cannot express per shot declines with
    :class:`FastPathUnsupported`: a dynamic result, or reading back a
    written result (classical feedback).
    """

    def __init__(self) -> None:
        super().__init__()
        self.values: List[object] = []
        self._recorded: List[int] = []

    def new_dynamic(self, value: object) -> ResultPtr:
        raise FastPathUnsupported("dynamic (m-style) results")

    def write(self, pointer: object, value: object) -> None:
        if not isinstance(pointer, IntPtr):
            raise FastPathUnsupported("dynamic result pointers")
        super().write(pointer, len(self.values))
        self.values.append(value)

    def read(self, pointer: object) -> int:
        if isinstance(pointer, IntPtr) and pointer.address in self._static:
            raise FastPathUnsupported("program feeds back on a measurement result")
        return super().read(pointer)

    def read_default(self, pointer: object, default: int = 0) -> int:
        if isinstance(pointer, IntPtr):
            column = self._static.get(pointer.address, ~default)
        else:
            column = ~super().read_default(pointer, default)
        self._recorded.append(column)
        return column

    def columns(self) -> List[int]:
        return output_columns(self._recorded, self._static, ZERO_COLUMN)


def sample_counts_from(
    backend: DeferredMeasurementBackend,
    results: SharedStreamResults,
    shots: int,
) -> Dict[str, int]:
    """Turn one uncollapsed evolution into a shot histogram, each drawn
    basis state rendered through the output rule's columns."""
    columns = results.columns()
    if not columns:
        return {"": shots}
    basis, counts = backend.inner.sample_basis(shots)
    return render_counts(basis, counts, results.values, columns)


# -- cached sampling distributions ---------------------------------------------


@dataclass(frozen=True)
class SampledDistribution:
    """The terminal output distribution of one fast-path evolution.

    ``entries`` holds ``(bitstring, probability)`` pairs for every
    *nonzero* basis outcome, **in basis-index order and unaggregated** --
    two basis states of the full register may render the same bitstring
    (unmeasured qubits) and must stay separate entries, because bit-exact
    warm replay depends on the cumulative sums :meth:`sample_counts`
    feeds the RNG matching the cold path's dense ones.  Dropping exact
    zeros and keeping order preserves every partial sum (``x + 0.0 == x``)
    and every ``searchsorted`` decision, so a warm plan serving shots
    from this table is bit-identical to re-running the evolution, for
    the same reserved fast-path seed.

    Empty ``entries`` encodes a program whose bitstring is empty (the
    cold path's ``{"": shots}``, no RNG consumed).
    """

    entries: Tuple[Tuple[str, float], ...]

    def sample_counts(self, shots: int, seed) -> Dict[str, int]:
        """Serve a shot histogram with zero simulation.

        ``seed`` must be the run's reserved fast-path sequence
        (:func:`~repro.runtime.shots.fastpath_sequence`) so warm
        counts reproduce what the cold path would have drawn.
        """
        if not self.entries:
            return {"": shots}
        rng = np.random.default_rng(seed)
        drawn = self._cdf.searchsorted(rng.random(shots), side="right")
        tally = np.bincount(drawn, minlength=len(self.entries))
        counts: Dict[str, int] = {}
        for index in np.flatnonzero(tally).tolist():
            bits = self.entries[index][0]
            counts[bits] = counts.get(bits, 0) + int(tally[index])
        return counts

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The cumulative table ``Generator.choice(p=...)`` draws through,
        built the same way (``cdf = p.cumsum(); cdf /= cdf[-1]``, then
        ``searchsorted`` of ``random(shots)``), so a warm draw equals the
        cold path's.  A table ``choice`` would reject raises
        ``ValueError`` on every call, and nothing is cached then."""
        probs = np.asarray([p for _, p in self.entries], dtype=np.float64)
        if np.isnan(probs).any() or (probs < 0).any():
            raise ValueError("distribution probabilities must be non-negative numbers")
        if abs(math.fsum(probs) - 1.0) > _CHOICE_ATOL:
            raise ValueError("distribution probabilities do not sum to 1")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return cdf

    def to_entries(self) -> List[List[object]]:
        return [[bits, prob] for bits, prob in self.entries]

    @classmethod
    def from_entries(cls, entries: object) -> "SampledDistribution":
        """Decode and validate a wire-format entry list.  Raises
        ``ValueError`` on anything suspect -- shape, types, bitstrings of
        differing or zero width, negative or non-finite probabilities, or
        a total the warm draw would reject (one tolerance: :attr:`_cdf`'s)."""
        if not isinstance(entries, list):
            raise ValueError("distribution entries must be a list")
        pairs: List[Tuple[str, float]] = []
        for item in entries:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError("distribution entry must be a [bits, prob] pair")
            bits, prob = item
            if not isinstance(bits, str) or not bits or bits.strip("01"):
                raise ValueError(f"distribution bitstring {bits!r} is not binary")
            if pairs and len(bits) != len(pairs[0][0]):
                raise ValueError(f"distribution bitstrings {pairs[0][0]!r}, {bits!r} differ in width")
            if isinstance(prob, bool) or not isinstance(prob, (int, float)):
                raise ValueError("distribution probability must be a number")
            prob = float(prob)
            if not math.isfinite(prob) or prob <= 0.0:
                raise ValueError(f"distribution probability {prob!r} out of range")
            pairs.append((bits, prob))
        distribution = cls(entries=tuple(pairs))
        if pairs:
            distribution._cdf  # raises what every warm draw would
        return distribution


def distribution_from(
    backend: DeferredMeasurementBackend,
    results: SharedStreamResults,
) -> Optional[SampledDistribution]:
    """Extract the cacheable terminal distribution of one evolution.

    Reads exactly the probabilities the cold path's
    :meth:`~StatevectorSimulator.sample_basis` feeds ``Generator.choice``
    and renders each nonzero basis outcome through the same columns as
    :func:`sample_counts_from`.  Returns ``None`` when the support exceeds
    :data:`MAX_CACHED_OUTCOMES` (not worth persisting).
    """
    columns = results.columns()
    if not columns:
        return SampledDistribution(entries=())
    probs = backend.inner.sampling_probabilities()
    nonzero = np.flatnonzero(probs)
    if len(nonzero) > MAX_CACHED_OUTCOMES:
        return None
    rendered = render_outcomes(nonzero, results.values, columns)
    return SampledDistribution(entries=tuple(zip(rendered, probs[nonzero].tolist())))
