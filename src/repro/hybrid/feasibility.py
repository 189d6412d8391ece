"""Coherence-budget feasibility checking (paper, Sec. IV-B).

For every feedback region: time the classical work on the controller; if
any instruction exceeds the controller's capability set, the whole region
must round-trip to the host (adding ``host_round_trip``).  The region's
total latency -- measurement readout plus classical work -- must fit the
coherence budget, else the program "describes an infeasible execution and
must be rejected."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hybrid.latency import DeviceModel
from repro.hybrid.partition import FeedbackRegion, Partition, partition_function
from repro.llvmir.function import Function
from repro.llvmir.module import EntryPointError, Module


@dataclass
class RegionTiming:
    region: FeedbackRegion
    controller_time: float  # ns of classical work on the controller
    needs_host_round_trip: bool
    total_latency: float  # measurement + classical work (+ round trip)
    feasible: bool

    def describe(self) -> str:
        route = "host round-trip" if self.needs_host_round_trip else "controller"
        status = "OK" if self.feasible else "REJECT"
        return (
            f"[{status}] {self.region.classical_op_count} classical ops via "
            f"{route}: {self.total_latency:.0f} ns"
        )


@dataclass
class FeasibilityReport:
    function_name: str
    device: DeviceModel
    timings: List[RegionTiming]

    @property
    def feasible(self) -> bool:
        return all(t.feasible for t in self.timings)

    @property
    def worst_latency(self) -> float:
        return max((t.total_latency for t in self.timings), default=0.0)

    def describe(self) -> str:
        lines = [
            f"feasibility of @{self.function_name} "
            f"(coherence budget {self.device.coherence_budget:.0f} ns):"
        ]
        for timing in self.timings:
            lines.append("  " + timing.describe())
        lines.append(f"  => {'FEASIBLE' if self.feasible else 'INFEASIBLE'}")
        return "\n".join(lines)


class InfeasibleProgramError(ValueError):
    def __init__(self, report: FeasibilityReport):
        super().__init__(report.describe())
        self.report = report


def time_region(region: FeedbackRegion, device: DeviceModel) -> RegionTiming:
    controller_time = 0.0
    needs_host = False
    for inst in region.classical_instructions:
        op_time = device.classical_op_time(inst)
        if op_time == float("inf"):
            needs_host = True
        else:
            controller_time += op_time
    for _ in region.control_instructions:
        op_time = device.control_op_time()
        if op_time == float("inf"):
            needs_host = True
        else:
            controller_time += op_time

    total = device.measurement_time + controller_time
    if needs_host:
        host_ops = region.classical_op_count + region.control_op_count
        total += device.host_round_trip + host_ops * device.host_op_time
    feasible = total <= device.coherence_budget
    return RegionTiming(region, controller_time, needs_host, total, feasible)


def check_feasibility(
    target: "Module | Function | Partition",
    device: Optional[DeviceModel] = None,
    raise_on_reject: bool = False,
) -> FeasibilityReport:
    """Evaluate every feedback region against the device's coherence budget."""
    device = device or DeviceModel()
    if isinstance(target, Partition):
        partition = target
    elif isinstance(target, Function):
        partition = partition_function(target)
    else:
        try:
            fn = target.entry_function()
        except EntryPointError:
            raise ValueError(
                "pass a specific Function for multi-entry modules"
            ) from None
        partition = partition_function(fn)

    timings = [time_region(r, device) for r in partition.regions]
    report = FeasibilityReport(
        partition.function.name or "?", device, timings
    )
    if raise_on_reject and not report.feasible:
        raise InfeasibleProgramError(report)
    return report
