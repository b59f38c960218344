"""State and process tomography with readout-error handling.

One measurement matrix per qubit count maps vec(rho) to the basis-state
probabilities after each standard pre-rotation setting, and is read both
ways.  Forward: the matrix times vec(rho), convolved with a per-qubit
confusion model.  Inverse: the confusion model inverted, then least
squares against the same matrix (the settings are informationally
complete), then eigenvalue clipping.  Scalar figures of merit live here too.

States and process matrices are plain complex arrays, and a set of
states a (k, d, d) stack: ``prep_states`` returns the spanning
preparations as one, ``process_from_states`` takes the stack of their
outputs in that order, and the forward model, the readout correction,
the inversion and the projection take any stack.  One rule reads the
qubit count (one or two) off a dimension, and every n-qubit product is
one Kronecker fold over its per-qubit factors.
Measurement statistics are a table with one row per setting, in
``all_settings`` order, or a (..., 3^n, 2^n) stack of tables.  A process
matrix chi is indexed over the unnormalized Pauli basis (``pauli_basis``):
the map acts as rho -> sum_mn chi_mn P_m rho P_n^+, with labels in
lexicographic I, X, Y, Z order per qubit, leftmost qubit slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .qcore import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, clip_negative

PAULIS_1Q = {
    "I": IDENTITY_2,
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
}

# pre-rotation gates applied before a Z-basis readout
TOMO_GATES = {
    "I": np.eye(2, dtype=complex),
    "Rx90": np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2),
    "Ry90": np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2),
}
SETTING_ORDER = ("I", "Rx90", "Ry90")

# the four preparation states spanning single-qubit density matrices
PREP_KETS = {
    "g": np.array([1.0, 0.0], dtype=complex),
    "e": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "+i": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
}
PREP_ORDER = ("g", "+", "+i", "e")


def _n_qubits(dim: int) -> int:
    """Qubit count of a tomography dimension: 2 or 4, else rejected."""
    if dim not in (2, 4):
        raise ValidationError(f"tomography covers one or two qubits, not dimension {dim}")
    return dim // 2


@cache
def pauli_basis(n_qubits: int) -> Mapping[str, np.ndarray]:
    """Unnormalized n-qubit Pauli operators keyed by label string, built
    once per qubit count: a read-only mapping of read-only arrays."""
    basis = {"".join(lbl): np.array(reduce(np.kron, [PAULIS_1Q[c] for c in lbl]))
             for lbl in product("IXYZ", repeat=n_qubits)}
    for op in basis.values():
        op.setflags(write=False)
    return MappingProxyType(basis)


@dataclass(frozen=True)
class ReadoutModel:
    """Per-qubit assignment fidelities for the two basis states."""

    fidelities: tuple[tuple[float, float], ...]  # (F_g, F_e) per qubit

    def __post_init__(self):
        if not all(0.5 < f <= 1.0 for f in np.ravel(self.fidelities)):
            raise ValidationError("readout fidelities must lie in (0.5, 1]")
        mat = reduce(np.kron, [np.array([[fg, 1.0 - fe], [1.0 - fg, fe]])
                               for fg, fe in self.fidelities])
        mat.setflags(write=False)
        # built once per model: every measurement and correction reads it
        object.__setattr__(self, "_confusion", mat)

    @property
    def n_qubits(self) -> int:
        return len(self.fidelities)

    def confusion(self) -> np.ndarray:
        """Column-stochastic map from true to reported basis statistics (read-only)."""
        return self._confusion


def project_psd(mat: np.ndarray, trace: float) -> np.ndarray:
    """Nearest positive matrix by eigenvalue clipping, rescaled to ``trace``,
    for one matrix or each of a (..., d, d) stack."""
    out = clip_negative(0.5 * (mat + mat.conj().swapaxes(-1, -2)))
    tr = np.trace(out, axis1=-2, axis2=-1).real
    if np.any(tr <= 0):
        raise ValidationError("projection left no positive weight")
    return out * (trace / tr)[..., None, None]


def readout_correct(probs: np.ndarray, readout: ReadoutModel) -> np.ndarray:
    """Invert the confusion model on each (..., 2^n) distribution; clip and
    renormalize the result."""
    probs = np.asarray(probs, dtype=float)
    conf = readout.confusion()
    if conf.shape[0] != probs.shape[-1]:
        raise ValidationError("distribution size does not match readout model")
    if abs(np.linalg.det(conf)) < 1e-12:
        raise ValidationError("confusion matrix is singular (F_g + F_e = 1)")
    est = np.clip(np.linalg.solve(conf, probs[..., None])[..., 0], 0.0, None)
    total = est.sum(axis=-1, keepdims=True)
    if not np.all(total > 0):
        raise ValidationError("correction produced an empty distribution")
    return est / total


def all_settings(n_qubits: int) -> tuple[tuple[str, ...], ...]:
    return tuple(product(SETTING_ORDER, repeat=n_qubits))


@cache
def _measurement_matrix(n_qubits: int) -> np.ndarray:
    """The map from vec(rho) to the outcome probabilities: one row, the
    conjugated and flattened effect U^+ |b><b| U, per setting U and outcome b."""
    dim = 2**n_qubits
    rows = []
    for setting in all_settings(n_qubits):
        u = reduce(np.kron, [TOMO_GATES[name] for name in setting])
        for b in range(dim):
            proj = np.zeros((dim, dim), dtype=complex)
            proj[b, b] = 1.0
            rows.append((u.conj().T @ proj @ u).conj().reshape(-1))
    rows = np.array(rows)
    rows.setflags(write=False)
    return rows


def tomography_data(rhos, readout: ReadoutModel | None = None) -> np.ndarray:
    """Forward-simulate the full pre-rotation measurement set of a 1- or
    2-qubit state or (..., d, d) stack: per state one row of basis-state
    probabilities per setting, in ``all_settings`` order, convolved with
    the readout model when one is given."""
    mats = np.asarray(rhos, dtype=complex)
    dim = mats.shape[-1]
    vecs = mats.reshape(*mats.shape[:-2], dim * dim, 1)
    probs = np.clip((_measurement_matrix(_n_qubits(dim)) @ vecs).real, 0.0, None)
    probs = probs.reshape(*mats.shape[:-2], -1, dim)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    if readout is not None:
        if 2 ** readout.n_qubits != dim:
            raise ValidationError("readout model size mismatch")
        probs = probs @ readout.confusion().T
    return probs


def state_tomo(data: np.ndarray, readout: ReadoutModel | None = None) -> np.ndarray:
    """Reconstruct a density matrix from pre-rotation statistics.

    ``data`` holds one row of basis-state counts per setting, in
    ``all_settings`` order, for one or two qubits, or is a (..., 3^n, 2^n)
    stack of such tables.  Counts are normalized per setting; a readout
    model, when given, is inverted before inversion of the measurement
    map.  The linear estimate is clipped to the physical cone and retraced.
    """
    data = np.asarray(data, dtype=float)
    n = {(3, 2): 1, (9, 4): 2}.get(data.shape[-2:])
    if n is None:
        raise ValidationError(f"tomography data of shape {data.shape} is not (3^n, 2^n), n = 1, 2")
    totals = data.sum(axis=-1, keepdims=True)
    if not np.all(totals > 0):
        raise ValidationError("empty statistics vector")
    probs = data / totals
    if readout is not None:
        probs = readout_correct(probs, readout)
    rhs = probs.reshape(-1, data.shape[-2] * data.shape[-1]).T  # one column per table
    sol, *_ = np.linalg.lstsq(_measurement_matrix(n), rhs, rcond=None)
    return project_psd(sol.T.reshape(data.shape[:-2] + (2**n, 2**n)), trace=1.0)


def prep_states(n_qubits: int) -> np.ndarray:
    """The spanning product preparations in ``PREP_ORDER`` product order, as
    a (4^n, 2^n, 2^n) stack of density matrices."""
    kets = [reduce(np.kron, [PREP_KETS[name] for name in combo])
            for combo in product(PREP_ORDER, repeat=n_qubits)]
    return np.array([np.outer(ket, ket.conj()) for ket in kets])


@cache
def _chi_blocks(n_qubits: int) -> np.ndarray:
    """Flattened kron(P_a, conj(P_b)) for every Pauli pair, indexed [a, b]."""
    basis = list(pauli_basis(n_qubits).values())
    blocks = np.array([[np.kron(pa, pb.conj()).reshape(-1) for pb in basis] for pa in basis])
    blocks.setflags(write=False)
    return blocks


@cache
def _prep_inverse(n_qubits: int) -> np.ndarray:
    """Inverse of the matrix whose columns are the flattened ``prep_states``."""
    dim = 2**n_qubits
    inv = np.linalg.inv(prep_states(n_qubits).reshape(dim * dim, -1).T)
    inv.setflags(write=False)
    return inv


def process_from_states(outputs: np.ndarray) -> np.ndarray:
    """Process matrix chi from the (4^n, 2^n, 2^n) stack of output states,
    one per ``prep_states(n)`` preparation and in that order."""
    outs = np.asarray(outputs, dtype=complex)
    dim = outs.shape[-1]
    n = _n_qubits(dim)
    if outs.shape != (dim * dim, dim, dim):
        raise ValidationError(f"need {dim * dim} output states, one per prep_states({n}) entry")
    smap = outs.reshape(dim * dim, -1).T @ _prep_inverse(n)
    chi = _chi_blocks(n).conj() @ smap.reshape(-1) / dim**2
    return project_psd(chi, trace=np.trace(chi).real)


def chi_ideal(unitary: np.ndarray) -> np.ndarray:
    """Rank-one process matrix of a unitary channel."""
    u = np.asarray(unitary, dtype=complex)
    dim = u.shape[0]
    basis = pauli_basis(_n_qubits(dim)).values()
    coeffs = np.array([np.trace(p.conj().T @ u) / dim for p in basis])
    return np.outer(coeffs, coeffs.conj())


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap figure Tr(A B) of two states or two chi matrices; agrees
    with the usual form for pure refs."""
    if a.shape != b.shape:
        raise ValidationError("shape mismatch")
    return float(np.real(np.trace(a @ b)))


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt distance sqrt(Tr[(A - B)^2])."""
    if a.shape != b.shape:
        raise ValidationError("shape mismatch")
    diff = a - b
    return float(np.sqrt(abs(np.real(np.trace(diff @ diff)))))


# the spin flip of two qubits
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_YY.setflags(write=False)


def concurrence(rho) -> float:
    """Two-qubit entanglement monotone via the spin-flip construction."""
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValidationError("concurrence is defined for two qubits")
    tilde = _YY @ mat.conj() @ _YY
    vals = np.linalg.eigvals(mat @ tilde)
    lam = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def pauli_expectations(rho) -> dict[str, float]:
    """Real expectation values over the Pauli basis of matching size."""
    mat = np.asarray(rho, dtype=complex)
    basis = pauli_basis(_n_qubits(mat.shape[0]))
    return {lbl: float(np.real(np.trace(p @ mat))) for lbl, p in basis.items()}
