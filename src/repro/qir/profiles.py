"""QIR profiles: graded restrictions of full QIR (paper, Section II-C).

"In its most restrictive form, the *base profile* only allows a sequence of
quantum instructions that ends with the measurement of all qubits [...].
The more permissive *adaptive profiles* allow the successive transition to
fully support all features contained in LLVM IR."

Each profile is a declarative capability set; :mod:`repro.qir.validate`
enforces it against a module.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Profile:
    """A capability set restricting which IR constructs a module may use."""

    name: str
    # control flow
    allow_multiple_blocks: bool = False
    allow_loops: bool = False  # requires allow_multiple_blocks
    # classical computation
    allow_int_computations: bool = False
    allow_float_computations: bool = False
    allow_memory: bool = False  # alloca/load/store/gep
    # quantum/classical interaction
    allow_result_feedback: bool = False  # read_result / result_equal / br on it
    allow_dynamic_qubits: bool = False  # rt qubit_allocate*
    allow_dynamic_results: bool = False  # qis m (returns Result*)
    # structure
    require_entry_point_attributes: bool = True
    require_module_flags: bool = True
    allow_user_functions: bool = False  # callable non-entry definitions


# The canonical profile instances.
BaseProfile = Profile(name="base_profile")

# The adaptive profile as specified by the QIR Alliance (Adaptive_RI:
# "Results and Integers"): forward branching on measurement results and
# integer computation, no loops.
AdaptiveProfile = Profile(
    name="adaptive_profile",
    allow_multiple_blocks=True,
    allow_loops=False,
    allow_int_computations=True,
    allow_result_feedback=True,
)

# An adaptive variant that also admits floating-point computation (the
# "Adaptive_RIF" direction) -- used by the VQE example.
AdaptiveProfileF = Profile(
    name="adaptive_profile_f",
    allow_multiple_blocks=True,
    allow_loops=False,
    allow_int_computations=True,
    allow_float_computations=True,
    allow_result_feedback=True,
)

# Unrestricted QIR: the full superset of LLVM IR (paper, Sec. II-C).
FullProfile = Profile(
    name="full",
    allow_multiple_blocks=True,
    allow_loops=True,
    allow_int_computations=True,
    allow_float_computations=True,
    allow_memory=True,
    allow_result_feedback=True,
    allow_dynamic_qubits=True,
    allow_dynamic_results=True,
    require_entry_point_attributes=False,
    require_module_flags=False,
    allow_user_functions=True,
)

_PROFILES = {
    p.name: p
    for p in (BaseProfile, AdaptiveProfile, AdaptiveProfileF, FullProfile)
}


def profile_by_name(name: str) -> Profile:
    profile = _PROFILES.get(name)
    if profile is None:
        raise KeyError(
            f"unknown profile {name!r}; have {sorted(_PROFILES)}"
        )
    return profile
