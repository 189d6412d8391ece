"""Gate catalogue: canonical names, arities, and unitary matrices.

The canonical gate vocabulary is shared by every layer of the stack: the
circuit IR, the OpenQASM frontend, the QIR QIS catalogue, and the
simulators.  Names follow the QIR QIS convention (lowercase; ``cnot`` not
``cx``) with OpenQASM aliases resolved by :func:`canonical_name`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

_SQRT1_2 = 1.0 / math.sqrt(2.0)


#: Kernel classes (:attr:`GateSpec.kind`).  A class belongs to the gate
#: family, never to one matrix instance: ``ry(0)`` is diagonal but
#: ``ry(0.3)`` is not, so ``ry`` is dense.
PERMUTATION = "permutation"  # a 0/1 matrix with one 1 per row and column
DIAGONAL = "diagonal"  # zero off the diagonal for every parameter value
DENSE = "dense"


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate: arities, Clifford membership, and
    the kernel class the statevector simulator applies it with."""

    name: str
    num_qubits: int
    num_params: int
    clifford: bool
    hermitian: bool = False  # self-inverse (its own adjoint)
    matrix_fn: Optional[Callable[..., np.ndarray]] = None
    kind: str = DENSE

    def matrix(self, *params: float) -> np.ndarray:
        if self.matrix_fn is None:
            raise ValueError(f"gate {self.name!r} has no unitary matrix")
        if len(params) != self.num_params:
            raise ValueError(
                f"gate {self.name!r} takes {self.num_params} params, got {len(params)}"
            )
        return self.matrix_fn(*params)


# -- fixed matrices -----------------------------------------------------------
_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=np.complex128)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
_SDG = _S.conj().T
_T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=np.complex128)
_TDG = _T.conj().T
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def controlled(matrix: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Build a controlled version of ``matrix`` (controls are the *leading*
    qubits in the combined operator's ordering)."""
    for _ in range(num_controls):
        dim = matrix.shape[0]
        out = np.eye(2 * dim, dtype=np.complex128)
        out[dim:, dim:] = matrix
        matrix = out
    return matrix


_CNOT = controlled(_X)
_CZ = controlled(_Z)
_CY = controlled(_Y)
_CCX = controlled(_X, 2)


# -- parameterised matrices ----------------------------------------------------
def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=np.complex128
    )


def _p(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=np.complex128)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def _crz(theta: float) -> np.ndarray:
    return controlled(_rz(theta))


def _cp(lam: float) -> np.ndarray:
    return controlled(_p(lam))


def _rzz(theta: float) -> np.ndarray:
    e_m = np.exp(-0.5j * theta)
    e_p = np.exp(0.5j * theta)
    return np.diag([e_m, e_p, e_p, e_m]).astype(np.complex128)


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), -1j * math.sin(theta / 2)
    out = np.eye(4, dtype=np.complex128) * c
    out[0, 3] = out[3, 0] = s
    out[1, 2] = out[2, 1] = s
    return out


def _const(matrix: np.ndarray) -> Callable[..., np.ndarray]:
    return lambda: matrix


# The canonical gate set.  ``clifford`` marks gates the stabilizer simulator
# accepts; rotations are Clifford only at special angles, so they are not.
GATE_SET: Dict[str, GateSpec] = {
    spec.name: spec
    for spec in [
        GateSpec("i", 1, 0, True, True, _const(_I), kind=DIAGONAL),
        GateSpec("x", 1, 0, True, True, _const(_X), kind=PERMUTATION),
        GateSpec("y", 1, 0, True, True, _const(_Y)),
        GateSpec("z", 1, 0, True, True, _const(_Z), kind=DIAGONAL),
        GateSpec("h", 1, 0, True, True, _const(_H)),
        GateSpec("s", 1, 0, True, False, _const(_S), kind=DIAGONAL),
        GateSpec("s_adj", 1, 0, True, False, _const(_SDG), kind=DIAGONAL),
        GateSpec("t", 1, 0, False, False, _const(_T), kind=DIAGONAL),
        GateSpec("t_adj", 1, 0, False, False, _const(_TDG), kind=DIAGONAL),
        GateSpec("sx", 1, 0, True, False, _const(_SX)),
        GateSpec("rx", 1, 1, False, False, _rx),
        GateSpec("ry", 1, 1, False, False, _ry),
        GateSpec("rz", 1, 1, False, False, _rz, kind=DIAGONAL),
        GateSpec("p", 1, 1, False, False, _p, kind=DIAGONAL),
        GateSpec("u3", 1, 3, False, False, _u3),
        GateSpec("cnot", 2, 0, True, True, _const(_CNOT), kind=PERMUTATION),
        GateSpec("cz", 2, 0, True, True, _const(_CZ), kind=DIAGONAL),
        GateSpec("cy", 2, 0, True, True, _const(_CY)),
        GateSpec("swap", 2, 0, True, True, _const(_SWAP), kind=PERMUTATION),
        GateSpec("crz", 2, 1, False, False, _crz, kind=DIAGONAL),
        GateSpec("cp", 2, 1, False, False, _cp, kind=DIAGONAL),
        GateSpec("rzz", 2, 1, False, False, _rzz, kind=DIAGONAL),
        GateSpec("rxx", 2, 1, False, False, _rxx),
        GateSpec("ccx", 3, 0, False, True, _const(_CCX), kind=PERMUTATION),
    ]
}

# OpenQASM / common aliases -> canonical names.
ALIASES: Dict[str, str] = {
    "id": "i",
    "cx": "cnot",
    "sdg": "s_adj",
    "tdg": "t_adj",
    "toffoli": "ccx",
    "ccnot": "ccx",
    "phase": "p",
    "u1": "p",
    "u": "u3",
    "cphase": "cp",
    "cu1": "cp",
}

# Adjoint pairs for the quantum optimisation passes.
ADJOINT: Dict[str, str] = {
    "s": "s_adj",
    "s_adj": "s",
    "t": "t_adj",
    "t_adj": "t",
}

# Rotation gates whose consecutive applications on the same qubits merge by
# summing angles (used by the rotation-merging pass).
MERGEABLE_ROTATIONS = {"rx", "ry", "rz", "p", "rzz", "rxx", "crz", "cp"}


def canonical_name(name: str) -> str:
    name = name.lower()
    return ALIASES.get(name, name)


def get_gate(name: str) -> GateSpec:
    spec = GATE_SET.get(canonical_name(name))
    if spec is None:
        raise KeyError(f"unknown gate {name!r}")
    return spec


def is_clifford_gate(name: str) -> bool:
    spec = GATE_SET.get(canonical_name(name))
    return spec is not None and spec.clifford


@lru_cache(maxsize=256)
def _cached_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    return get_gate(name).matrix(*params)


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """The unitary for a gate application; cached for repeated angles."""
    return _cached_matrix(canonical_name(name), tuple(float(p) for p in params))
