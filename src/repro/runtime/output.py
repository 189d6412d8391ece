"""Output recording, in the format used by the QIR Alliance's qir-runner.

Base-profile programs end with ``__quantum__rt__*_record_output`` calls;
the recorder turns them into structured records and renders the
``OUTPUT\\t...`` text lines, e.g.::

    OUTPUT\tARRAY\t2\tresults
    OUTPUT\tRESULT\t0\tr0
    OUTPUT\tRESULT\t1\tr1

:func:`output_columns` is the one rule for which results make up a shot's
bitstring; every execution tier renders through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, TypeVar, Union

from repro.sim.sampling import table_columns

T = TypeVar("T")


@dataclass(frozen=True)
class OutputRecord:
    kind: str  # "ARRAY" | "TUPLE" | "RESULT" | "BOOL" | "INT" | "DOUBLE"
    value: Union[int, float, str]
    label: Optional[str] = None

    def render(self) -> str:
        parts = ["OUTPUT", self.kind, str(self.value)]
        if self.label is not None:
            parts.append(self.label)
        return "\t".join(parts)


class OutputRecorder:
    def __init__(self) -> None:
        self.records: List[OutputRecord] = []

    def record(self, kind: str, value: Union[int, float, str], label: Optional[str]) -> None:
        self.records.append(OutputRecord(kind, value, label))

    def render(self) -> str:
        return "\n".join(r.render() for r in self.records)

    def result_bits(self) -> List[int]:
        """The RESULT records' values in recording order."""
        return [int(r.value) for r in self.records if r.kind == "RESULT"]

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


def output_columns(recorded: Sequence[T], table: Mapping[int, T], unwritten: T) -> List[T]:
    """Which results make up a shot's bitstring, leftmost bit first.

    ``recorded`` holds, in record order, the value each RESULT record saw
    at record time: an unwritten result reads 0, and ``result_get_one`` /
    ``result_get_zero`` read 1 and 0.  The last record is the leftmost
    bit.  With no RESULT record the final static result table is used,
    addresses ``max..0`` with unwritten ones reading ``unwritten``.

    The per-shot interpreter passes bits.  The shared-stream tiers (the
    sampling fast path and the fused schedule) pass output
    columns (:data:`~repro.sim.sampling.ZERO_COLUMN`) naming the
    measurement that wrote each result, and render them per shot later.
    """
    if recorded:
        return list(reversed(recorded))
    return table_columns(table, unwritten)
