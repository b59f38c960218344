"""State and process tomography with readout-error handling.

Forward direction: exact or sampled basis-state statistics after the
standard pre-rotation settings, convolved with a per-qubit confusion
model.  Inverse direction: linear inversion (least squares over the
informationally complete setting list) followed by eigenvalue clipping.
Scalar figures of merit live here too.

States and process matrices are plain complex arrays.  A process matrix
chi is indexed over the unnormalized Pauli basis (``pauli_basis``):
the map acts as rho -> sum_mn chi_mn P_m rho P_n^+, with labels in
lexicographic I, X, Y, Z order per qubit, leftmost qubit slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .errors import ValidationError
from .qcore import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

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


def project_psd(mat: np.ndarray, trace: float | None = 1.0) -> np.ndarray:
    """Nearest positive matrix by eigenvalue clipping, optional retrace."""
    herm = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.conj().T
    if trace is not None:
        tr = np.trace(out).real
        if tr <= 0:
            raise ValidationError("projection left no positive weight")
        out = out * (trace / tr)
    return out


def simulate_measurement(
    rho,
    readout: ReadoutModel | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Joint basis-state statistics of a 1- or 2-qubit state.

    Exact mode (shots None) returns the error-convolved probability
    vector; otherwise multinomial counts from a seeded draw.
    """
    mat = np.asarray(rho, dtype=complex)
    dim = mat.shape[0]
    if dim not in (2, 4):
        raise ValidationError("measurement model covers one or two qubits")
    probs = np.clip(np.diag(mat).real, 0.0, None)
    probs = probs / probs.sum()
    if readout is not None:
        if 2 ** readout.n_qubits != dim:
            raise ValidationError("readout model size mismatch")
        probs = readout.confusion() @ probs
    if shots is None:
        return probs
    rng = np.random.default_rng(seed)
    return rng.multinomial(int(shots), probs).astype(float)


def readout_correct(probs: np.ndarray, readout: ReadoutModel) -> np.ndarray:
    """Invert the confusion model; clip and renormalize the result."""
    probs = np.asarray(probs, dtype=float)
    conf = readout.confusion()
    if conf.shape[0] != probs.shape[0]:
        raise ValidationError("distribution size does not match readout model")
    if abs(np.linalg.det(conf)) < 1e-12:
        raise ValidationError("confusion matrix is singular (F_g + F_e = 1)")
    est = np.linalg.solve(conf, probs)
    est = np.clip(est, 0.0, None)
    total = est.sum()
    if total <= 0:
        raise ValidationError("correction produced an empty distribution")
    return est / total


@cache
def _setting_unitary(setting: tuple[str, ...]) -> np.ndarray:
    u = np.array([[1.0]], dtype=complex)
    for name in setting:
        if name not in TOMO_GATES:
            raise ValidationError(f"unknown tomography gate {name!r}")
        u = np.kron(u, TOMO_GATES[name])
    u.setflags(write=False)
    return u


@cache
def _effect_rows(n_qubits: int) -> np.ndarray:
    """Conjugated, flattened effects U^+ |b><b| U per setting U and outcome b."""
    dim = 2**n_qubits
    rows = []
    for setting in all_settings(n_qubits):
        u = _setting_unitary(setting)
        for b in range(dim):
            proj = np.zeros((dim, dim), dtype=complex)
            proj[b, b] = 1.0
            rows.append((u.conj().T @ proj @ u).conj().reshape(-1))
    rows = np.array(rows)
    rows.setflags(write=False)
    return rows


def all_settings(n_qubits: int) -> tuple[tuple[str, ...], ...]:
    return tuple(product(SETTING_ORDER, repeat=n_qubits))


def tomography_data(
    rho,
    readout: ReadoutModel | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> dict[tuple[str, ...], np.ndarray]:
    """Forward-simulate the full pre-rotation measurement set."""
    mat = np.asarray(rho, dtype=complex)
    n = 1 if mat.shape[0] == 2 else 2
    data = {}
    for k, setting in enumerate(all_settings(n)):
        u = _setting_unitary(setting)
        rotated = u @ mat @ u.conj().T
        data[setting] = simulate_measurement(
            rotated, readout, shots, seed=seed + k
        )
    return data


def state_tomo(
    data: dict[tuple[str, ...], np.ndarray],
    readout: ReadoutModel | None = None,
) -> np.ndarray:
    """Reconstruct a density matrix from pre-rotation statistics.

    Counts are normalized per setting; a readout model, when given, is
    inverted before inversion of the measurement map.  The linear
    estimate is clipped to the physical cone and retraced.
    """
    if not data:
        raise ValidationError("no tomography data")
    n = len(next(iter(data.keys())))
    settings = all_settings(n)
    missing = [s for s in settings if s not in data]
    if missing:
        raise ValidationError(f"missing tomography settings: {missing}")
    dim = 2**n
    targets = []
    for setting in settings:
        probs = np.asarray(data[setting], dtype=float)
        if probs.shape != (dim,):
            raise ValidationError("statistics vector has the wrong length")
        total = probs.sum()
        if total <= 0:
            raise ValidationError("empty statistics vector")
        probs = probs / total
        if readout is not None:
            probs = readout_correct(probs, readout)
        targets.extend(probs)
    sol, *_ = np.linalg.lstsq(_effect_rows(n), np.array(targets), rcond=None)
    return project_psd(sol.reshape(dim, dim), trace=1.0)


def prep_states(n_qubits: int) -> dict[tuple[str, ...], np.ndarray]:
    """The spanning product preparations, as density matrices."""
    out = {}
    for combo in product(PREP_ORDER, repeat=n_qubits):
        ket = np.array([[1.0]], dtype=complex)
        for name in combo:
            ket = np.kron(ket, PREP_KETS[name])
        out[combo] = np.outer(ket, ket.conj())
    return out


@cache
def _chi_blocks(n_qubits: int) -> np.ndarray:
    """Flattened kron(P_a, conj(P_b)) for every Pauli pair, indexed [a, b]."""
    basis = list(pauli_basis(n_qubits).values())
    blocks = np.array([[np.kron(pa, pb.conj()).reshape(-1) for pb in basis] for pa in basis])
    blocks.setflags(write=False)
    return blocks


def process_from_states(inputs: dict, outputs: dict) -> np.ndarray:
    """Process matrix chi from matched prepared/measured state pairs.

    ``inputs`` and ``outputs`` map the same keys to density matrices; the
    inputs must span operator space (4^n states).
    """
    if set(inputs) != set(outputs):
        raise ValidationError("input and output keys differ")
    ins = [np.asarray(inputs[k], dtype=complex) for k in inputs]
    outs = [np.asarray(outputs[k], dtype=complex) for k in inputs]
    dim = ins[0].shape[0]
    if dim not in (2, 4) or len(ins) != dim * dim:
        raise ValidationError(f"need {dim*dim} spanning inputs for dimension {dim}")
    in_mat = np.stack([m.reshape(-1) for m in ins], axis=1)
    out_mat = np.stack([m.reshape(-1) for m in outs], axis=1)
    if np.linalg.matrix_rank(in_mat, tol=1e-10) < dim * dim:
        raise ValidationError("input states do not span operator space")
    smap = out_mat @ np.linalg.inv(in_mat)
    chi = _chi_blocks(1 if dim == 2 else 2).conj() @ smap.reshape(-1) / dim**2
    chi = 0.5 * (chi + chi.conj().T)
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
