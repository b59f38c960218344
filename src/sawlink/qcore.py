"""Complex linear algebra over small composite Hilbert spaces.

Dense states, operators, tensor embedding and partial trace, for the
mode counts this toolkit needs (dimension <= a few hundred).  An
operator is a plain complex (dim, dim) array; a state is a
``QuantumState``, checked to be a density matrix when built.  The
module needs numpy alone: the superoperators built from these operators
live in `dynamics`.

All values are immutable after construction (the operator arrays
``embed`` and ``embed_product`` return are read-only); nothing here
keeps shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Composite space of labelled modes, optionally excitation-capped.

    Basis kets are occupation vectors in lexicographic order (leftmost
    mode most significant), which coincides with the usual Kronecker
    ordering for uncapped spaces.  With ``excitation_cap`` set, only
    kets with total occupation <= cap are built, in the same order.
    ``basis`` holds them as the rows of a read-only (dim, n_modes) array.
    """

    mode_dims: tuple[int, ...]
    labels: tuple[str, ...]
    excitation_cap: int | None = None
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        mode_dims: Sequence[int],
        labels: Sequence[str],
        excitation_cap: int | None = None,
    ):
        dims = tuple(int(d) for d in mode_dims)
        labs = tuple(str(x) for x in labels)
        if len(dims) != len(labs):
            raise ValidationError("one label per mode required")
        if any(d < 2 for d in dims):
            raise ValidationError("every mode dimension must be >= 2")
        if len(set(labs)) != len(labs):
            raise ValidationError(f"labels must be unique, got {labs}")
        if excitation_cap is not None and excitation_cap < 0:
            raise ValidationError("excitation_cap must be >= 0")
        object.__setattr__(self, "mode_dims", dims)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "excitation_cap", excitation_cap)
        cap = sum(dims) if excitation_cap is None else excitation_cap
        # extend every prefix within the cap by each allowed occupation of
        # the next mode; nonzero() walks (prefix, occupation) row-major,
        # which keeps the kets in lexicographic order
        kets, load = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
        for d in dims:
            prefix, occ = np.nonzero(load[:, None] + np.arange(d) <= cap)
            kets, load = np.column_stack([kets[prefix], occ]), load[prefix] + occ
        kets.setflags(write=False)
        object.__setattr__(self, "basis", kets)

    @property
    def dim(self) -> int:
        return len(self.basis)

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
        if len(occ) == self.n_modes:
            hit = np.flatnonzero((self.basis == occ).all(axis=1))
            if hit.size:
                return int(hit[0])
        raise ValidationError(f"occupation {occ} not in basis")


# Validation tolerances for physical density matrices.
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-10
EIG_ATOL = 1e-10


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


def embed_product(ops: dict[str, np.ndarray], space: HilbertSpace) -> np.ndarray:
    """Tensor product of single-mode operators, identity elsewhere, as a
    read-only (dim, dim) array.

    Matrix elements are taken directly between capped-basis kets, which
    equals building the full Kronecker product and projecting onto the
    retained subspace.
    """
    basis = space.basis
    dim = space.dim
    mat = np.ones((dim, dim), dtype=complex)
    seen = set()
    for label, op in ops.items():
        k = space.mode_index(label)
        seen.add(k)
        op = np.asarray(op, dtype=complex)
        d = space.mode_dims[k]
        if op.shape != (d, d):
            raise ValidationError(
                f"operator for mode {label!r} has shape {op.shape}, mode dim is {d}"
            )
        mat *= op[basis[:, k][:, None], basis[None, :, k]]
    for k in range(space.n_modes):
        if k not in seen:
            mat *= basis[:, k][:, None] == basis[None, :, k]
    mat.setflags(write=False)
    return mat


def embed(op: np.ndarray, target_mode: str, space: HilbertSpace) -> np.ndarray:
    """Lift a single-mode operator onto the composite space (read-only)."""
    return embed_product({target_mode: op}, space)


def partial_trace(state: QuantumState, keep: Sequence[str]) -> QuantumState:
    """Reduced density matrix on the kept modes, in keep-list order."""
    dims = [state.space.mode_dims[state.space.mode_index(lbl)] for lbl in keep]
    return QuantumState(HilbertSpace(dims, keep), partial_trace_stack(state.space, state.rho, keep))


def partial_trace_stack(space: HilbertSpace, rhos: np.ndarray, keep: Sequence[str]) -> np.ndarray:
    """Reduced matrices on the kept modes of a stack (..., d, d), Hermitian-symmetrised.

    The space must be the full tensor product: a capped space is rejected."""
    keep_idx = [space.mode_index(lbl) for lbl in keep]
    lead = rhos.shape[:-2]
    if space.dim != math.prod(space.mode_dims):
        raise ValidationError("partial trace needs an uncapped space")
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
