"""Deferred-measurement sampling: a multi-shot fast path for the runtime.

A base-profile program measures every qubit at the end; re-interpreting it
per shot (the general path, what qir-runner does) re-simulates the same
unitary evolution a thousand times.  When measurements are *terminal* the
quantum state right before them is shot-independent, so the runtime can
evolve once and sample the joint measurement distribution.

The fast path is attempted optimistically and *proves its own
applicability while running*: a deferred backend records measurements
without collapsing, and aborts with :class:`FastPathUnsupported` the
moment the program does anything whose semantics would depend on a
measurement outcome --

* a gate / reset / release touching an already-measured qubit,
* a reset or release of a superposed qubit (its outcome is random per
  shot, so one shared collapse would serve every shot the same one),
* measuring the same qubit twice,
* reading a result value (``read_result`` / ``result_equal`` feedback),
* a dynamic (``m``-style) result.

On abort the caller falls back -- to the batch tier
(:func:`~repro.runtime.shots.run_batched`) when the plan has a fused
schedule, else to per-shot interpretation -- so the fast path is sound by
construction rather than by up-front program analysis.

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
from typing import Dict, List, Optional, Sequence, Tuple

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


class DeferredMeasurementBackend(DelegatingBackend):
    """Statevector wrapper that records measurements instead of collapsing.

    ``measure`` returns the measured slot: the outcome it stands for is
    that slot's bit in each basis state sampled after the evolution.
    Nothing here draws from the RNG: a reset that would (a superposed
    qubit) declines instead."""

    def __init__(self, inner: StatevectorSimulator):
        super().__init__(inner)
        self._measured_set: set = set()

    def release_qubit(self, slot: int) -> None:
        # Releasing resets the qubit.  For a *measured* qubit the reset
        # happens after the recorded outcome in the per-shot model, so it
        # cannot affect results -- but here it would corrupt the deferred
        # joint distribution.  Skip the physical reset and leave the slot
        # allocated (it is never reused within this single evolution).
        if slot in self._measured_set:
            return
        self._check_not_superposed(slot)
        self.inner.release_qubit(slot)

    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> None:
        if self._measured_set.intersection(qubits):
            raise FastPathUnsupported("gate after measurement on the same qubit")
        self.inner.apply_gate(name, qubits, params)

    def measure(self, slot: int) -> int:
        if slot in self._measured_set:
            raise FastPathUnsupported("qubit measured twice")
        self._measured_set.add(slot)
        return slot

    def reset(self, slot: int) -> None:
        if slot in self._measured_set:
            raise FastPathUnsupported("reset after measurement")
        self._check_not_superposed(slot)
        self.inner.reset(slot)

    def _check_not_superposed(self, slot: int) -> None:
        if is_superposed(self.inner.probability_of_one(slot)):
            raise FastPathUnsupported("reset of a superposed qubit")


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
