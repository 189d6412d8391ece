"""Outcome rendering: basis-state indices -> classical bitstrings.

Every sampling surface routes sampled qubit values onto classical
addresses and renders them highest address first.  Two guards keep that
routing exact:

* ``GOLDEN_COUNTS_DIGEST`` hashes the counts (and captured distribution
  tables) of every sampling surface on a fixed corpus at fixed seeds.  It
  was recorded with the per-outcome Python loops the vectorised renderer
  replaced, so any change to a bit, a key or an RNG draw shows up here.
* A property test checks the static-table helper composed with
  :func:`render_outcomes` (:func:`static_render`) against
  :func:`reference_render`, the original loop, kept below as the spec.
"""

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, run_circuit
from repro.qir import SimpleModule
from repro.runtime import QirRuntime, QirSession
from repro.runtime.sampling_fastpath import MAX_CACHED_OUTCOMES
from repro.sim.sampling import ZERO_COLUMN, render_outcomes, sample_counts, table_columns
from repro.sim.statevector import StatevectorSimulator
from repro.workloads.qir_programs import bell_qir, ghz_qir

GOLDEN_COUNTS_DIGEST = "70a5003b5c00f712da238992572485560bf5e4ec5b9a895b12e61c51f42dc9ca"

SHOTS = 600
SEEDS = (3, 17, 2024)


def reference_render(basis, slots, addresses, width):
    """The per-outcome loop the renderer replaced: bit ``slots[k]`` of
    ``basis`` goes to ``addresses[k]``, the last write to an address
    wins, unwritten addresses read ``0``, highest address first, and
    addresses outside ``0..width-1`` are not rendered."""
    by_address = {}
    for slot, address in zip(slots, addresses):
        by_address[address] = str((basis >> slot) & 1)
    return "".join(by_address.get(address, "0") for address in range(width - 1, -1, -1))


def static_render(basis, slots, addresses, width):
    """The renderer a static result table drives: measurement ``k`` reads
    bit ``slots[k]`` and writes ``addresses[k]``; the table's columns come
    from :func:`table_columns`."""
    table = {address: k for k, address in enumerate(addresses)}
    return render_outcomes(basis, slots, table_columns(table, ZERO_COLUMN, width))


# -- corpus -------------------------------------------------------------------


def _entangle(qis, qubits, angle):
    """A non-uniform entangled state, so every outcome has its own weight."""
    for k, q in enumerate(qubits):
        qis.ry(angle * (k + 1), q)
    for a, b in zip(qubits, qubits[1:]):
        qis.cnot(a, b)
    for k, q in enumerate(qubits):
        qis.rx(angle / (k + 2), q)


def _gapped_addresses():
    # Results 0, 2 and 3 are never written; q1 is unmeasured, so pairs of
    # basis states that differ only in q1 render the same bitstring.
    sm = SimpleModule("gapped", 4, 6)
    _entangle(sm.qis, [0, 1, 2, 3], 0.7)
    sm.qis.mz(0, 1)
    sm.qis.mz(2, 4)
    sm.qis.mz(3, 5)
    return sm.ir()


def _reordered_addresses():
    # Addresses written out of order, and r2 written twice (q1 wins).
    sm = SimpleModule("reordered", 4, 3)
    _entangle(sm.qis, [0, 1, 2, 3], 1.1)
    sm.qis.mz(2, 2)
    sm.qis.mz(0, 0)
    sm.qis.mz(1, 2)
    sm.qis.mz(3, 1)
    return sm.ir()


def _colliding_unmeasured():
    # Three of five qubits unmeasured: many basis states per bitstring.
    sm = SimpleModule("colliding", 5, 2)
    _entangle(sm.qis, [0, 1, 2, 3, 4], 0.4)
    sm.qis.mz(3, 0)
    sm.qis.mz(1, 1)
    return sm.ir()


def _measurement_free():
    sm = SimpleModule("unmeasured", 2, 0)
    _entangle(sm.qis, [0, 1], 0.9)
    return sm.ir()


def _wide_support():
    # 2**13 nonzero outcomes: more than MAX_CACHED_OUTCOMES, so capture
    # declines and the cold path still samples.
    sm = SimpleModule("wide", 13, 13)
    for q in range(13):
        sm.qis.h(q)
        sm.qis.ry(0.05 * (q + 1), q)
    for q in range(13):
        sm.qis.mz(q, q)
    return sm.ir()


PROGRAMS = {
    "gapped": _gapped_addresses(),
    "reordered": _reordered_addresses(),
    "colliding": _colliding_unmeasured(),
    "measurement_free": _measurement_free(),
    "wide": _wide_support(),
    "ghz5": ghz_qir(5, "static"),
    "bell_dynamic": bell_qir("dynamic"),
}


def _circuits():
    gapped = Circuit("gapped")
    gapped.qreg(4)
    gapped.creg(6)
    for q in range(4):
        gapped.ry(0.6 * (q + 1), q)
    gapped.cx(0, 1)
    gapped.cx(2, 3)
    gapped.measure(2, 4)
    gapped.measure(0, 1)
    gapped.measure(3, 4)  # clbit 4 written twice: q3 wins
    gapped.measure(0, 5)  # q0 lands on two clbits

    bare = Circuit("bare")
    bare.qreg(2)
    bare.creg(2)
    bare.h(0)
    bare.cx(0, 1)

    unitary = Circuit("unitary")
    unitary.qreg(2)
    unitary.h(1)
    return {"gapped": gapped, "bare": bare, "unitary": unitary}


def _statevector(seed):
    sim = StatevectorSimulator(4, seed=seed)
    for q in range(4):
        sim.apply_gate("ry", [q], [0.5 * (q + 1)])
    sim.apply_gate("cx", [0, 2])
    sim.apply_gate("cx", [1, 3])
    return sim


def _record(counts):
    return sorted(counts.items())


def golden_records():
    """Every sampling surface on the corpus, in a fixed order."""
    records = []
    for seed in SEEDS:
        for name, text in PROGRAMS.items():
            session = QirSession(runtime=QirRuntime(seed=seed))
            plan = session.compile(text)
            cold = QirRuntime(seed=seed).run_shots(plan, shots=SHOTS, sampling="require")
            captured = plan.distribution
            table = None if captured is None else [[b, repr(p)] for b, p in captured.entries]
            warm = QirRuntime(seed=seed).run_shots(plan, shots=SHOTS, sampling="require")
            assert warm.distribution_served == (captured is not None)
            raw = QirRuntime(seed=seed).run_shots(
                text, shots=SHOTS, sampling="require"
            )
            records.append(
                [name, seed, _record(cold.counts), table, _record(warm.counts), _record(raw.counts)]
            )
        sim = _statevector(seed)
        records.append(["sv.all", seed, _record(sim.sample(SHOTS))])
        records.append(["sv.subset", seed, _record(sim.sample(SHOTS, qubits=[2, 0, 2]))])
        probs = [0.1, 0.0, 0.3, 0.05, 0.15, 0.2, 0.0, 0.2]
        records.append(["sample_counts.3", seed, _record(sample_counts(probs, SHOTS, 3, seed))])
        records.append(["sample_counts.5", seed, _record(sample_counts(probs, SHOTS, 5, seed))])
        for name, circuit in _circuits().items():
            records.append(["circuit." + name, seed, _record(run_circuit(circuit, SHOTS, seed))])
    return records


def records_digest(records):
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_counts_match_recorded_digest():
    assert records_digest(golden_records()) == GOLDEN_COUNTS_DIGEST


def test_wide_program_declines_capture_but_samples():
    text = PROGRAMS["wide"]
    plan = QirSession(runtime=QirRuntime(seed=1)).compile(text)
    result = QirRuntime(seed=1).run_shots(plan, shots=64, sampling="require")
    assert 2 ** 13 > MAX_CACHED_OUTCOMES
    assert plan.distribution is None
    assert sum(result.counts.values()) == 64
    assert all(len(bits) == 13 for bits in result.counts)


# -- property: the renderer matches the reference loop ---------------------


@st.composite
def _routing(draw):
    num_qubits = draw(st.integers(0, 10))
    width = draw(st.integers(0, 12))
    length = draw(st.integers(0, 8)) if num_qubits else 0
    slots = draw(st.lists(st.integers(0, num_qubits - 1), min_size=length, max_size=length)) if length else []
    addresses = draw(st.lists(st.integers(-2, width + 1), min_size=length, max_size=length))
    basis = draw(st.lists(st.integers(0, (1 << num_qubits) - 1), max_size=20))
    return basis, slots, addresses, width


@settings(max_examples=300, deadline=None)
@given(_routing())
def test_render_matches_reference_loop(case):
    basis, slots, addresses, width = case
    expected = [reference_render(b, slots, addresses, width) for b in basis]
    assert static_render(np.asarray(basis, dtype=np.int64), slots, addresses, width) == expected


def test_render_examples():
    basis = np.array([0b101, 0b011, 0b000])
    # q0 -> address 2, q2 -> address 0, address 1 unwritten.
    assert static_render(basis, [0, 2], [2, 0], 3) == ["101", "100", "000"]
    # Address 0 written twice: the later write (q1) wins.
    assert static_render(basis, [0, 1], [0, 0], 1) == ["0", "1", "0"]
    assert static_render(basis, [], [], 0) == ["", "", ""]
    assert static_render(np.array([], dtype=np.int64), [0], [0], 2) == []
    # Columns straight from RESULT records: q2 leftmost, a constant one,
    # then a record made before anything was measured (constant zero).
    assert render_outcomes(basis, [0, 2], [1, ~1, ZERO_COLUMN]) == ["110", "010", "010"]


def test_render_skips_addresses_outside_the_width():
    # A program may write result address -1 (``inttoptr (i64 -1 ...)``);
    # like the per-shot path, the fast path does not render it.
    assert static_render(np.array([0b11]), [0, 1], [-1, 0], 1) == ["1"]
    assert static_render(np.array([0b11]), [0, 1], [3, 0], 2) == ["01"]
    assert static_render(np.array([0b11]), [0], [-1], 0) == [""]
    assert static_render(np.array([0b11]), [0], [-3], -2) == [""]
