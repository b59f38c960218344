"""Complex linear algebra over small composite Hilbert spaces.

Dense states, operators, tensor embedding and partial trace, plus sparse
superoperator blocks and the time-dependent generator built from them,
for the mode counts this toolkit needs (dimension <= a few hundred).
An operator is a plain complex (dim, dim) array; a state is a
``QuantumState``, checked to be a density matrix when built.  Density
matrices are vectorized row-major, so a sandwich A rho B turns into
(A kron B^T) vec(rho).

All values are immutable after construction (the operator arrays
``embed`` and ``embed_product`` return are read-only); nothing here
keeps shared mutable state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

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
    kets with total occupation <= cap are retained, in the same order.
    """

    mode_dims: tuple[int, ...]
    labels: tuple[str, ...]
    excitation_cap: int | None = None
    basis: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

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
        kets = itertools.product(*(range(d) for d in dims))
        if excitation_cap is not None:
            kets = (k for k in kets if sum(k) <= excitation_cap)
        object.__setattr__(self, "basis", tuple(kets))

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
        try:
            return self.basis.index(tuple(occupation))
        except ValueError:
            raise ValidationError(f"occupation {tuple(occupation)} not in basis")

    def full_indices(self) -> np.ndarray:
        """Index of each basis ket inside the uncapped tensor space."""
        strides = np.cumprod((1,) + self.mode_dims[::-1][:-1])[::-1]
        occ = np.array(self.basis, dtype=np.int64)
        return occ @ strides

    def basis_array(self) -> np.ndarray:
        return np.array(self.basis, dtype=np.int64)


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
    basis = space.basis_array()
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
    """Reduced matrices on the kept modes of a stack (..., d, d), Hermitian-symmetrised."""
    keep_idx = [space.mode_index(lbl) for lbl in keep]
    lead = rhos.shape[:-2]

    if space.excitation_cap is None:
        rho_full = rhos
    else:
        full_dim = int(np.prod(space.mode_dims))
        idx = space.full_indices()
        rho_full = np.zeros(lead + (full_dim, full_dim), dtype=complex)
        rho_full[..., idx[:, None], idx[None, :]] = rhos

    n = space.n_modes
    tensor = rho_full.reshape(lead + space.mode_dims + space.mode_dims)
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


@dataclass(frozen=True)
class Generator:
    """Linear map L(t) = sum_k c_k(t) B_k on vectorized density matrices.

    The constant d^2 x d^2 blocks B_k are stacked vertically into one
    sparse (n_terms * d^2) x d^2 matrix, and one function returns the
    whole coefficient vector c(t), so applying L(t) costs one sparse
    product and one contraction over the terms.  A constant generator
    holds its coefficient vector in place of the function, and its blocks
    are summed into ``stacked`` once, so applying it is one sparse product.
    """

    space: HilbertSpace
    stacked: sparse.csr_array
    coeffs: Callable[[float], np.ndarray] | np.ndarray

    def __init__(
        self,
        space: HilbertSpace,
        blocks: Sequence[sparse.sparray],
        coeffs: Callable[[float], np.ndarray] | Sequence[complex],
    ):
        d2 = space.dim**2
        if any(block.shape != (d2, d2) for block in blocks):
            raise ValidationError(f"superoperator blocks must be {d2} x {d2}")
        if not callable(coeffs):
            coeffs = np.array(coeffs)
            if coeffs.shape != (len(blocks),):
                raise ValidationError(f"{coeffs.size} coefficients for {len(blocks)} blocks")
            coeffs.setflags(write=False)
            blocks = [sum((c * b for c, b in zip(coeffs, blocks)), sparse.csr_array((d2, d2)))]
        stacked = sparse.vstack(blocks, format="csr") if blocks else (0, d2)
        stacked = sparse.csr_array(stacked, dtype=complex)
        stacked.eliminate_zeros()
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        """L(t) vec(rho), or L(t) applied to each column of a matrix ``y``."""
        if not callable(self.coeffs):
            return self.stacked @ y
        c = self.coeffs(t)
        return (c @ (self.stacked @ y).reshape(c.size, y.size)).reshape(y.shape)


def _block(*terms: tuple[complex, np.ndarray, np.ndarray]) -> sparse.csr_array:
    """Sparse block of rho -> sum w a rho b over the (w, a, b) terms.

    Each term is the Kronecker product w (a kron b^T) (row-major
    vectorization), built from the nonzeros of a and b alone.
    """
    n = terms[0][1].shape[0]
    rows, cols, vals = [], [], []
    for w, a, b in terms:
        bt = b.T
        ia, ja = np.nonzero(a)
        ib, jb = np.nonzero(bt)
        rows.append((ia[:, None] * n + ib).ravel())
        cols.append((ja[:, None] * n + jb).ravel())
        vals.append((w * a[ia, ja][:, None] * bt[ib, jb]).ravel())
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sparse.csr_array(sparse.coo_array(coo, shape=(n * n, n * n), dtype=complex))


def commutator_superop(h: np.ndarray) -> sparse.csr_array:
    """Block of rho -> -i [H, rho]; trace-free and Hermiticity-preserving for Hermitian H."""
    eye = np.eye(h.shape[0])
    return _block((-1j, h, eye), (1j, eye, h))


def dissipator(x: np.ndarray) -> sparse.csr_array:
    """Block of the Lindblad damping D[X] rho = X rho X^+ - 1/2 {X^+X, rho}."""
    eye = np.eye(x.shape[0])
    xdx = x.conj().T @ x
    return _block((1.0, x, x.conj().T), (-0.5, xdx, eye), (-0.5, eye, xdx))


def cross_dissipator(a: np.ndarray, b: np.ndarray) -> sparse.csr_array:
    """Block of the interference part of D[A + B].

    rho -> A rho B^+ + B rho A^+ - 1/2 {A^+B + B^+A, rho}
    """
    if a.shape != b.shape:
        raise ValidationError("operator spaces differ")
    eye = np.eye(a.shape[0])
    anti = a.conj().T @ b + b.conj().T @ a
    return _block(
        (1.0, a, b.conj().T), (1.0, b, a.conj().T), (-0.5, anti, eye), (-0.5, eye, anti)
    )
