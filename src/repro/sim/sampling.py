"""Helpers for working with measurement histograms."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, TypeVar

import numpy as np

#: Output columns name where each bit of a rendered bitstring comes from,
#: leftmost first: a column ``k >= 0`` reads the k-th measurement, and a
#: negative column ``c`` is the constant bit ``~c`` (``~1`` for a
#: ``result_get_one`` record, ``ZERO_COLUMN`` for an unwritten result).
ZERO_COLUMN = ~0

T = TypeVar("T")


def table_columns(table: Mapping[int, T], unwritten: T, width: Optional[int] = None) -> List[T]:
    """A static result table as output columns, highest address first.

    Addresses ``width-1 .. 0`` are rendered (``width`` defaults to one
    past the highest address in ``table``); an address missing from
    ``table`` reads ``unwritten``, and addresses outside ``0..width-1``
    are not rendered."""
    if width is None:
        width = max(table, default=-1) + 1
    return [table.get(address, unwritten) for address in range(width - 1, -1, -1)]


def render_columns(values: Sequence[np.ndarray], columns: Sequence[int], rows: int) -> List[str]:
    """Render ``rows`` bitstrings through ``columns``; ``values[k]`` holds
    the k-th measurement's bit in every row.  A ``uint8`` matrix is filled
    one column at a time and its rows read back as ``S{width}`` strings,
    so no Python code runs per row."""
    width = len(columns)
    if width == 0:
        return [""] * rows
    chars = np.empty((rows, width), dtype=np.uint8)
    for index, column in enumerate(columns):
        chars[:, index] = values[column] if column >= 0 else ~column
    chars += ord("0")
    return chars.view(f"S{width}").ravel().astype(str).tolist()


def render_outcomes(basis, slots, columns: Sequence[int]) -> List[str]:
    """Render basis-state indices: measurement ``k`` reads bit ``slots[k]``
    of the index, and ``columns`` picks and orders the output bits."""
    basis = np.asarray(basis, dtype=np.int64)
    return render_columns([(basis >> slot) & 1 for slot in slots], columns, len(basis))


def render_counts(basis, counts, slots, columns: Sequence[int]) -> Dict[str, int]:
    """Histogram of :func:`render_outcomes` over distinct ``basis`` indices
    drawn ``counts`` times; indices that render alike are summed."""
    histogram: Dict[str, int] = {}
    for bits, count in zip(render_outcomes(basis, slots, columns), counts.tolist()):
        histogram[bits] = histogram.get(bits, 0) + count
    return histogram


def sample_counts(
    probabilities: Sequence[float],
    shots: int,
    num_bits: int,
    seed: Optional[int] = None,
) -> Dict[str, int]:
    """Draw ``shots`` samples from a basis-state distribution; raises
    ``ValueError`` when ``num_bits`` cannot index every outcome."""
    if len(probabilities) > 1 << num_bits:
        raise ValueError(f"{len(probabilities)} outcomes do not fit in {num_bits} bits")
    rng = np.random.default_rng(seed)
    probs = np.asarray(probabilities, dtype=float)
    probs = probs / probs.sum()
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    bits = range(num_bits)
    columns = table_columns({bit: bit for bit in bits}, ZERO_COLUMN)
    return render_counts(*np.unique(outcomes, return_counts=True), bits, columns)


def counts_to_probabilities(counts: Mapping[str, int]) -> Dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {bits: n / total for bits, n in counts.items()}


def total_variation_distance(
    a: Mapping[str, float], b: Mapping[str, float]
) -> float:
    """TVD between two outcome distributions; the integration tests use this
    to check that transformation passes preserve program semantics."""
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
