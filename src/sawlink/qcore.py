"""Complex linear algebra over small composite Hilbert spaces.

Dense states, operators, tensor embedding and partial trace, for the
mode counts this toolkit needs (dimension <= a few hundred).  An
operator is a plain complex (dim, dim) array, and a set of states a
(k, dim, dim) stack that ``check_states`` checks in one pass; a
``QuantumState`` is one state checked when built, the form a caller
hands a single state in.  The module needs numpy alone: the
superoperators built from these operators live in `dynamics`.

All values are immutable after construction (the operator arrays
``embed`` returns are read-only); nothing here keeps shared mutable
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError


# Single-qubit matrices in the {|g>, |e>} basis.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
NUMBER = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class HilbertSpace:
    """Tensor product of labelled modes.

    Basis kets are occupation vectors in lexicographic order (leftmost
    mode most significant), the usual Kronecker ordering.
    """

    mode_dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __init__(self, mode_dims: Sequence[int], labels: Sequence[str]):
        dims = tuple(int(d) for d in mode_dims)
        labs = tuple(str(x) for x in labels)
        if len(dims) != len(labs):
            raise ValidationError("one label per mode required")
        if any(d < 2 for d in dims):
            raise ValidationError("every mode dimension must be >= 2")
        if len(set(labs)) != len(labs):
            raise ValidationError(f"labels must be unique, got {labs}")
        object.__setattr__(self, "mode_dims", dims)
        object.__setattr__(self, "labels", labs)

    @property
    def dim(self) -> int:
        return math.prod(self.mode_dims)

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    def mode_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown mode label {label!r}; have {self.labels}")

    def basis_index(self, occupation: Sequence[int]) -> int:
        occ = tuple(occupation)
        if len(occ) != self.n_modes or not all(0 <= n < d for n, d in zip(occ, self.mode_dims)):
            raise ValidationError(f"occupation {occ} not in basis")
        return int(np.ravel_multi_index(occ, self.mode_dims))


# Validation tolerances for physical density matrices.
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-10
EIG_ATOL = 1e-10
# The range of an integration tol: a tighter one stalls RK45, a looser one integrates noise.
MIN_TOL, MAX_TOL = 1e-12, 1e-3


def hermiticity_error(rhos: np.ndarray) -> np.ndarray:
    """max |rho - rho^H| of each matrix of a stack (..., d, d), taken from the
    real and imaginary parts so that no complex copy of the stack is made."""
    re, im = rhos.real, rhos.imag
    err = re - re.swapaxes(-1, -2)
    return np.hypot(err, im + im.swapaxes(-1, -2), out=err).max(axis=(-2, -1))


def check_states(rhos: np.ndarray) -> None:
    """Raise unless every matrix of a stack (..., d, d) is Hermitian, of unit
    trace and positive within the tolerances above.  Each test reads
    ``not x <= tol``, so a NaN fails it."""
    if not np.max(hermiticity_error(rhos)) <= HERM_ATOL:
        raise ValidationError("state is not Hermitian within tolerance")
    tr = np.trace(rhos, axis1=-2, axis2=-1)
    off = np.maximum(np.abs(tr.real - 1.0), np.abs(tr.imag))
    if not np.max(off) <= TRACE_ATOL:
        raise ValidationError(f"state trace {tr.flat[np.argmax(off)]} is not 1 within tolerance")
    # every eigenvalue exceeds -EIG_ATOL exactly when rho + EIG_ATOL I has a
    # Cholesky factor, which costs a fraction of an eigendecomposition
    try:
        np.linalg.cholesky(rhos + EIG_ATOL * np.eye(rhos.shape[-1]))
    except np.linalg.LinAlgError:
        raise ValidationError("state has a negative eigenvalue beyond tolerance") from None


def clip_negative(rhos: np.ndarray) -> np.ndarray:
    """Each Hermitian matrix of a stack (..., d, d) with its negative eigenvalues zeroed."""
    vals, vecs = np.linalg.eigh(rhos)
    return (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def check_tol(tol: float) -> None:
    """Raise unless ``tol`` lies in [MIN_TOL, MAX_TOL]."""
    if not MIN_TOL <= tol <= MAX_TOL:
        raise ValidationError(f"tol = {tol} is outside [{MIN_TOL}, {MAX_TOL}]")


def check_grid(grid: np.ndarray) -> None:
    """Raise unless ``grid`` is a strictly increasing 1-d array of two or more times."""
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be a strictly increasing 1-d array")


@dataclass(frozen=True)
class QuantumState:
    space: HilbertSpace
    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=complex)
        if r.shape != (self.space.dim, self.space.dim):
            raise ValidationError(
                f"rho shape {r.shape} does not match space dim {self.space.dim}"
            )
        check_states(r)
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)

    @classmethod
    def basis_state(cls, space: HilbertSpace, occupation: Sequence[int]) -> "QuantumState":
        v = np.zeros(space.dim, dtype=complex)
        v[space.basis_index(occupation)] = 1.0
        return cls(space, np.outer(v, v.conj()))


def embed(op: np.ndarray, target_mode: str, space: HilbertSpace) -> np.ndarray:
    """Lift a single-mode operator onto the composite space, identity on
    every other mode, as a read-only (dim, dim) array."""
    k = space.mode_index(target_mode)
    op = np.asarray(op, dtype=complex)
    d = space.mode_dims[k]
    if op.shape != (d, d):
        raise ValidationError(
            f"operator for mode {target_mode!r} has shape {op.shape}, mode dim is {d}"
        )
    left, right = math.prod(space.mode_dims[:k]), math.prod(space.mode_dims[k + 1 :])
    mat = np.kron(np.kron(np.eye(left), op), np.eye(right))
    mat.setflags(write=False)
    return mat


def partial_trace(space: HilbertSpace, rhos: np.ndarray, keep: Sequence[str]) -> np.ndarray:
    """Reduced matrices on the kept modes, in keep-list order, of a stack
    (..., d, d), Hermitian-symmetrised."""
    keep_idx = [space.mode_index(lbl) for lbl in keep]
    lead = rhos.shape[:-2]
    n = space.n_modes
    tensor = rhos.reshape(lead + space.mode_dims + space.mode_dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * n > len(letters):
        raise ValidationError("too many modes for partial trace")
    bra = list(letters[:n])
    ket = list(letters[n : 2 * n])
    for m in range(n):
        if m not in keep_idx:
            ket[m] = bra[m]  # contract this mode
    out = "".join(bra[m] for m in keep_idx) + "".join(ket[m] for m in keep_idx)
    reduced = np.einsum("..." + "".join(bra) + "".join(ket) + "->..." + out, tensor)
    d = int(np.prod([space.mode_dims[m] for m in keep_idx]))
    reduced = reduced.reshape(lead + (d, d))
    return 0.5 * (reduced + reduced.conj().swapaxes(-1, -2))
