"""One output rule for every execution tier.

A shot's bitstring is what its ``result_record_output`` calls emit: each
RESULT record contributes its result's value at record time, the last
record is the leftmost bit, and a program with no RESULT record renders
its final static result table, highest address leftmost.  The table below
runs every shape of record list through every tier: the per-shot
interpreter (the reference), fused per-shot, the process scheduler, the
cold sampling fast path and its warm replay.
"""

import pytest

from repro.runtime import QirRuntime, compile_plan

# Deterministic variants prepare q0 = 1, q1 = 0; stochastic ones rotate
# q0 and q1 by these angles (P(1) = 0.32 and 0.71), so every program has
# at most four outcomes, each with probability above 0.05.
_DETERMINISTIC = {"A": "x", "B": None}
_STOCHASTIC = {"A": "ry 1.2", "B": "ry 2.0"}

#: name -> (program lines, the deterministic variant's one bitstring)
PROGRAMS = {
    "no_records": (["A 0", "B 1", "mz 0 0", "mz 1 2"], "001"),
    "ascending": (["A 0", "B 1", "mz 0 0", "mz 1 1", "rec 0", "rec 1"], "01"),
    "partial": (["A 0", "B 1", "mz 0 0", "mz 1 1", "rec 0"], "1"),
    "reversed": (["A 0", "B 1", "mz 0 0", "mz 1 1", "rec 1", "rec 0"], "10"),
    "duplicated": (["A 0", "B 1", "mz 0 0", "mz 1 1", "rec 0", "rec 1", "rec 0"], "101"),
    "record_before_measure": (["A 0", "B 1", "rec 0", "mz 0 0", "mz 1 1", "rec 1", "rec 0"], "100"),
    "result_get_one": (["A 0", "B 1", "mz 0 0", "mz 1 1", "one", "rec 1"], "01"),
    "reset_chain_partial": (
        ["A 0", "mz 0 0", "reset 0", "x 0", "mz 0 1", "reset 0", "B 0", "mz 0 2", "rec 2", "rec 0"],
        "10",
    ),
}

_DECLARATIONS = """
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__ry__body(double, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__qis__reset__body(ptr)
declare ptr @__quantum__rt__result_get_one()
declare void @__quantum__rt__result_record_output(ptr, ptr)

attributes #0 = { "entry_point" "required_num_qubits"="2" "required_num_results"="3" }
"""


def _ptr(index):
    return "ptr null" if index == 0 else f"ptr inttoptr (i64 {index} to ptr)"


def assemble(lines, gates):
    """QIR text for ``lines``; ``A``/``B`` expand to ``gates[A]``/``gates[B]``."""
    body = []
    for line in lines:
        op, *args = line.split()
        if op in gates:
            if gates[op] is None:
                continue
            op, *params = gates[op].split()
            args = params + args
        if op == "mz":
            body.append(f"call void @__quantum__qis__mz__body({_ptr(int(args[0]))}, {_ptr(int(args[1]))})")
        elif op == "rec":
            body.append(f"call void @__quantum__rt__result_record_output({_ptr(int(args[0]))}, ptr null)")
        elif op == "one":
            body.append("%one = call ptr @__quantum__rt__result_get_one()")
            body.append("call void @__quantum__rt__result_record_output(ptr %one, ptr null)")
        elif op == "ry":
            body.append(f"call void @__quantum__qis__ry__body(double {args[0]}, {_ptr(int(args[1]))})")
        else:
            body.append(f"call void @__quantum__qis__{op}__body({_ptr(int(args[0]))})")
    text = "\n  ".join(body)
    return f"define void @main() #0 {{\nentry:\n  {text}\n  ret void\n}}\n{_DECLARATIONS}"


SEED = 5


def per_shot_tiers(plan, shots):
    """Counts of every per-shot configuration, for one seed."""
    def run(program=plan, **options):
        return QirRuntime(seed=SEED).run_shots(program, shots, **options).counts

    return {
        "interpreter": run(plan.module, entry=plan.entry, sampling="never"),
        "fused": run(sampling="never"),
        "process": run(sampling="never", jobs=2),
    }


def fast_path_tiers(plan, shots):
    """Cold then warm counts of the default (fast path first) run.  No
    program here feeds back on a measurement, so the fast path serves
    every one, mid-circuit resets included."""
    cold = QirRuntime(seed=SEED).run_shots(plan, shots)
    warm = QirRuntime(seed=SEED).run_shots(plan, shots)
    assert cold.used_fast_path
    assert warm.distribution_served == (plan.distribution is not None)
    return {"cold": cold.counts, "warm": warm.counts}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_deterministic_programs_agree_on_every_tier(name):
    lines, expected = PROGRAMS[name]
    plan = compile_plan(assemble(lines, _DETERMINISTIC))
    counts = {**per_shot_tiers(plan, 40), **fast_path_tiers(plan, 40)}
    assert counts == {tier: {expected: 40} for tier in counts}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_stochastic_programs_keep_per_shot_identity_and_fast_path_support(name):
    lines, _ = PROGRAMS[name]
    plan = compile_plan(assemble(lines, _STOCHASTIC))
    tiers = per_shot_tiers(plan, 60)
    reference = tiers["interpreter"]
    assert all(counts == reference for counts in tiers.values()), tiers
    per_shot = QirRuntime(seed=SEED).run_shots(plan, 2000, sampling="never").counts
    sampled = fast_path_tiers(plan, 2000)
    assert len(per_shot) <= 4
    assert set(sampled["cold"]) == set(sampled["warm"]) == set(per_shot)


def test_execute_reports_records_in_record_order():
    lines, expected = PROGRAMS["record_before_measure"]
    result = QirRuntime(seed=SEED).execute(assemble(lines, _DETERMINISTIC))
    assert result.result_bits == [0, 0, 1]
    assert result.bitstring == expected
