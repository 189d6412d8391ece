"""Helpers for working with measurement histograms."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np


def render_outcomes(basis, slots, addresses, width: int) -> List[str]:
    """Render basis-state indices as ``width``-bit strings, highest address
    first: bit ``slots[k]`` goes to ``addresses[k]`` (a later write wins),
    unwritten addresses read ``0`` and addresses outside ``0..width-1`` are
    not rendered.  A ``uint8`` matrix is filled one column per address and
    its rows read back as ``S{width}`` strings, so no Python code runs per
    outcome."""
    if width <= 0:
        return [""] * len(basis)
    written = {a: s for a, s in zip(addresses, slots) if 0 <= a < width}
    chars = np.full((len(basis), width), ord("0"), dtype=np.uint8)
    columns = width - 1 - np.array(list(written), dtype=np.int64)
    shifts = np.array(list(written.values()), dtype=np.int64)
    chars[:, columns] = ((np.asarray(basis, dtype=np.int64)[:, None] >> shifts) & 1) + ord("0")
    return chars.view(f"S{width}").ravel().astype(str).tolist()


def render_counts(basis, counts, slots, addresses, width: int) -> Dict[str, int]:
    """Histogram of :func:`render_outcomes` over distinct ``basis`` indices
    drawn ``counts`` times; indices that render alike are summed."""
    histogram: Dict[str, int] = {}
    for bits, count in zip(render_outcomes(basis, slots, addresses, width), counts.tolist()):
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
    return render_counts(*np.unique(outcomes, return_counts=True), bits, bits, num_bits)


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
