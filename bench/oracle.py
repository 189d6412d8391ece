"""Output oracle: every request's counts against an independent reference.

Straight-line requests are checked against the exact distribution of
their gate list, computed by ``repro.circuit.simulate.statevector_of``
(the custom-IR path, which shares no code with parsing, passes, plans or
the QIR runtime).  Feedback requests carry analytic distributions.

Two checks run on every request:

* **support** -- the counts sum to the shots requested, and every
  observed outcome has nonzero reference probability;
* **TVD** -- wherever shots >= 10x the support, the total variation
  distance to the reference stays under the bound that a correct sampler
  exceeds with probability at most its share of :data:`FALSE_ALARM`
  (Weissman et al. 2003:
  ``P(||p_hat - p||_1 >= eps) <= (2^k - 2) exp(-n eps^2 / 2)``).  The
  same test runs on each bit's marginal, whose support is at most 2, so
  distributions too wide for the joint test are still checked.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

#: Per-request false-alarm probability, split across the request's tests;
#: small enough that no run of the benchmark should ever raise one.
FALSE_ALARM = 1e-9

#: Reference probabilities at or below this are zero up to rounding.
_ZERO = 1e-12


def tvd_bound(support: int, shots: int, delta: float) -> float:
    """TVD a correct sampler exceeds with probability at most ``delta``."""
    eps_l1 = math.sqrt(2.0 * (support * math.log(2.0) + math.log(1.0 / delta)) / shots)
    return eps_l1 / 2.0


class Reference:
    """One request's exact output distribution and its bit marginals."""

    def __init__(self, probabilities: Dict[str, float]):
        self.probabilities = {k: p for k, p in probabilities.items() if p > _ZERO}
        self.width = len(next(iter(self.probabilities)))
        self.ones: List[float] = [0.0] * self.width
        for bits, p in self.probabilities.items():
            for position, bit in enumerate(bits):
                if bit == "1":
                    self.ones[position] += p


class Oracle:
    """Builds references (cached by request key) and checks counts."""

    def __init__(self) -> None:
        self._cache: Dict[str, Reference] = {}

    def reference(self, request) -> Reference:
        cached = self._cache.get(request.key) if request.key is not None else None
        if cached is not None:
            return cached
        if request.distribution is not None:
            reference = Reference(dict(request.distribution))
        else:
            reference = Reference(_statevector_probabilities(request))
        if request.key is not None:
            self._cache[request.key] = reference
        return reference

    def check(self, request, counts: Dict[str, int]) -> Optional[str]:
        """``None`` when the counts pass, else why they fail."""
        reference = self.reference(request)
        shots = request.shots
        total = sum(counts.values())
        if total != shots:
            return f"counts sum to {total}, expected {shots}"
        probabilities = reference.probabilities
        for bits in counts:
            if bits not in probabilities:
                return f"outcome {bits!r} has reference probability 0"
        delta = FALSE_ALARM / (1 + reference.width)
        support = len(probabilities)
        if shots >= 10 * support:
            tvd = 0.5 * sum(abs(counts.get(k, 0) / shots - p) for k, p in probabilities.items())
            bound = tvd_bound(support, shots, delta)
            if tvd > bound:
                return f"TVD {tvd:.4f} exceeds {bound:.4f} (support {support}, {shots} shots)"
        ones = [0] * reference.width
        for bits, count in counts.items():
            for position, bit in enumerate(bits):
                if bit == "1":
                    ones[position] += count
        bound = tvd_bound(2, shots, delta)
        for position, expected in enumerate(reference.ones):
            # A two-outcome marginal's TVD is just the gap in P(1).
            tvd = abs(ones[position] / shots - expected)
            if tvd > bound:
                return (
                    f"bit {position} from the left: TVD {tvd:.4f} exceeds "
                    f"{bound:.4f} ({shots} shots)"
                )
        return None


def _statevector_probabilities(request) -> Dict[str, float]:
    from repro.circuit.circuit import Circuit
    from repro.circuit.simulate import statevector_of

    circuit = Circuit("reference")
    circuit.qreg(request.num_qubits, "q")
    for name, qubits, params in request.ops:
        circuit.gate(name, list(qubits), list(params))
    probabilities = abs(statevector_of(circuit)) ** 2
    # Little-endian state index; qubit i is measured into result i and the
    # runtime renders the highest result first, so the index's binary
    # spelling is the bitstring.
    width = request.num_qubits
    return {format(index, f"0{width}b"): float(p) for index, p in enumerate(probabilities)}
