"""State and process tomography with readout-error handling.

One measurement matrix per qubit count maps vec(rho) to the basis-state
probabilities after each standard pre-rotation setting, and is read both
ways.  Forward: the matrix times vec(rho), convolved with a per-qubit
confusion model.  Inverse: the confusion model inverted, then least
squares against the same matrix (the settings are informationally
complete), then eigenvalue clipping.  Scalar figures of merit live here too.

States and process matrices are plain complex arrays, and a set of
states a (k, d, d) stack: ``prep_states`` returns one,
``process_from_states`` takes two, and the forward model, the readout
correction, the inversion and the projection take any stack.
Measurement statistics are a table with one row per setting, in
``all_settings`` order, or a (..., 3^n, 2^n) stack of tables.  A process
matrix chi is indexed over the unnormalized Pauli basis (``pauli_basis``):
the map acts as rho -> sum_mn chi_mn P_m rho P_n^+, with labels in
lexicographic I, X, Y, Z order per qubit, leftmost qubit slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

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


def pauli_basis(n_qubits: int) -> dict[str, np.ndarray]:
    """Unnormalized n-qubit Pauli operators keyed by label string."""
    if n_qubits == 1:
        return dict(PAULIS_1Q)
    labels = ["".join(p) for p in product("IXYZ", repeat=n_qubits)]
    out = {}
    for lbl in labels:
        m = np.array([[1.0]], dtype=complex)
        for ch in lbl:
            m = np.kron(m, PAULIS_1Q[ch])
        out[lbl] = m
    return out


@dataclass(frozen=True)
class ReadoutModel:
    """Per-qubit assignment fidelities for the two basis states."""

    fidelities: tuple[tuple[float, float], ...]  # (F_g, F_e) per qubit

    def __post_init__(self):
        mat = np.array([[1.0]])
        for fg, fe in self.fidelities:
            for f in (fg, fe):
                if not 0.5 < f <= 1.0:
                    raise ValidationError("readout fidelities must lie in (0.5, 1]")
            mat = np.kron(mat, np.array([[fg, 1.0 - fe], [1.0 - fg, fe]]))
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
        u = np.array([[1.0]], dtype=complex)
        for name in setting:
            u = np.kron(u, TOMO_GATES[name])
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
    if dim not in (2, 4):
        raise ValidationError("measurement model covers one or two qubits")
    vecs = mats.reshape(*mats.shape[:-2], dim * dim, 1)
    probs = np.clip((_measurement_matrix(1 if dim == 2 else 2) @ vecs).real, 0.0, None)
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
    out = []
    for combo in product(PREP_ORDER, repeat=n_qubits):
        ket = np.array([[1.0]], dtype=complex)
        for name in combo:
            ket = np.kron(ket, PREP_KETS[name])
        out.append(np.outer(ket, ket.conj()))
    return np.array(out)


@cache
def _chi_blocks(n_qubits: int) -> np.ndarray:
    """Flattened kron(P_a, conj(P_b)) for every Pauli pair, indexed [a, b]."""
    basis = list(pauli_basis(n_qubits).values())
    blocks = np.array([[np.kron(pa, pb.conj()).reshape(-1) for pb in basis] for pa in basis])
    blocks.setflags(write=False)
    return blocks


def process_from_states(inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Process matrix chi from matched (k, d, d) stacks of prepared and
    measured states; the inputs must span operator space (k = d^2)."""
    ins = np.asarray(inputs, dtype=complex)
    outs = np.asarray(outputs, dtype=complex)
    dim = ins.shape[-1]
    if dim not in (2, 4) or ins.shape != (dim * dim, dim, dim) or outs.shape != ins.shape:
        raise ValidationError(f"need {dim*dim} spanning inputs and as many outputs "
                              f"for dimension {dim}")
    in_mat = ins.reshape(dim * dim, -1).T
    out_mat = outs.reshape(dim * dim, -1).T
    if np.linalg.matrix_rank(in_mat, tol=1e-10) < dim * dim:
        raise ValidationError("input states do not span operator space")
    smap = out_mat @ np.linalg.inv(in_mat)
    chi = _chi_blocks(1 if dim == 2 else 2).conj() @ smap.reshape(-1) / dim**2
    return project_psd(chi, trace=np.trace(chi).real)


def chi_ideal(unitary: np.ndarray) -> np.ndarray:
    """Rank-one process matrix of a unitary channel."""
    u = np.asarray(unitary, dtype=complex)
    dim = u.shape[0]
    if dim not in (2, 4):
        raise ValidationError("one- or two-qubit unitaries only")
    n = 1 if dim == 2 else 2
    coeffs = np.array(
        [np.trace(p.conj().T @ u) / dim for p in pauli_basis(n).values()]
    )
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


def concurrence(rho) -> float:
    """Two-qubit entanglement monotone via the spin-flip construction."""
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValidationError("concurrence is defined for two qubits")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    tilde = yy @ mat.conj() @ yy
    vals = np.linalg.eigvals(mat @ tilde)
    lam = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def pauli_expectations(rho) -> dict[str, float]:
    """Real expectation values over the Pauli basis of matching size."""
    mat = np.asarray(rho, dtype=complex)
    n = 1 if mat.shape[0] == 2 else 2
    return {
        lbl: float(np.real(np.trace(p @ mat)))
        for lbl, p in pauli_basis(n).items()
    }
