"""Lindblad evolution in real coordinates of Hermitian states.

A density matrix is carried as d^2 real coordinates: its diagonal, then
sqrt 2 Re and sqrt 2 Im of each upper entry, in row-major order.  They
are T vec(rho), vec row-major, for the unitary T whose rows pick the
diagonal entries and form (rho_ij + rho_ji) / sqrt 2 and
(rho_ij - rho_ji) / (sqrt 2 i) for i < j.  In them a
Hermiticity-preserving superoperator B is the real matrix T B T^H
(Gorini, Kossakowski and Sudarshan, J. Math. Phys. 17, 821 (1976)).
The commutator and dissipator blocks are built as such real
scipy.sparse matrices and assembled once on their union pattern as a
``BlockSet``, and the ``Generator`` weights them by a real coefficient
vector c(t).  ``evolve_generator`` integrates it with ``solve_ivp``, an
adaptive Dormand-Prince 5(4) stepper in numpy whose scalar bookkeeping
is done in Python floats, the coefficients evaluated analytically at
the stepper's stage times, piece by piece between breakpoints and on
each piece's side of its ends.  The stepper hands each attempted step's
five distinct stage times to the right-hand side before its stages run,
and L is filled for all of them at once: c is read at each time, and
one product of the (5 x n_terms) coefficient block with the block set's
(n_terms x nnz) entries forms the five data rows.  The step's six
calls, its five stages and its first-same-as-last call, then only apply
their row by scipy's compiled CSR kernel ``csr_matvecs``, without the
Python dispatch of ``csr_array @``; scipy serves this module only
through ``scipy.sparse``.  A (k, d, d) stack of initial states is
checked once and evolves as the k columns of one real d^2 x k matrix.
The pieces' samples are joined and come back as an exactly Hermitian
(n_times, k, d, d) stack, so the repair pass measures no Hermiticity
error.  It checks and repairs the whole stack in one pass: one Cholesky
factorisation of rho + EIG_ATOL / d I screens positivity, and only when
it fails are the stack's eigenvalues read, and the states whose lowest
one is below -EIG_ATOL / d rebuilt by one ``clip_negative`` call.
"""

from __future__ import annotations

import bisect
import math
from functools import cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvecs

from .errors import DiagnosticsError, IntegrationError, ValidationError
from .qcore import (
    EIG_ATOL,
    HilbertSpace,
    check_grid,
    check_states,
    check_tol,
    clip_negative,
)

DEFAULT_TOL = 1e-8

# A trajectory state may dip this far below positivity before we call it
# unphysical rather than integration noise.
POSITIVITY_CLIP = 1e-8

SQRT2 = math.sqrt(2.0)
# a block's imaginary part, relative to its largest entry, above which it
# is taken for a map that does not preserve Hermiticity
REAL_BLOCK_RTOL = 1e-12


@cache
def _coordinates(d: int) -> tuple[np.ndarray, ...]:
    """The upper entries (iu, ju) of a d x d matrix, row-major, and where
    each entry p of vec(rho) lands in the real coordinates: it adds
    w[p, s] rho_p to coordinate at[p, s] for s = 0, 1, before coordinate a
    is scaled by scale[a].  A diagonal entry has one target, its second
    weight 0; w[p, 0] is real and w[p, 1] imaginary."""
    iu, ju = np.triu_indices(d, 1)
    m, diag = iu.size, np.arange(d) * (d + 1)
    at = np.zeros((d * d, 2), dtype=np.intp)
    w = np.zeros((d * d, 2), dtype=complex)
    at[diag, 0], w[diag, 0] = np.arange(d), 1.0
    pair = np.column_stack([d + np.arange(m), d + m + np.arange(m)])
    at[iu * d + ju], w[iu * d + ju] = pair, [1.0, -1j]
    at[ju * d + iu], w[ju * d + iu] = pair, [1.0, 1j]
    scale = np.concatenate([np.ones(d), np.full(2 * m, 1 / SQRT2)])
    for a in (iu, ju, at, w, scale):
        a.setflags(write=False)
    return iu, ju, at, w, scale


def to_coords(rhos: np.ndarray) -> np.ndarray:
    """The real coordinates (..., d^2) of a stack (..., d, d) of Hermitian
    matrices, read from their diagonals and upper triangles."""
    iu, ju, *_ = _coordinates(rhos.shape[-1])
    upper = rhos[..., iu, ju]
    diag = np.diagonal(rhos, axis1=-2, axis2=-1).real
    return np.concatenate([diag, SQRT2 * upper.real, SQRT2 * upper.imag], axis=-1)


def from_coords(coords: np.ndarray) -> np.ndarray:
    """The exactly Hermitian stack (..., d, d) with real coordinates (..., d^2)."""
    d = math.isqrt(coords.shape[-1])
    _, _, at, w, scale = _coordinates(d)
    # vec(rho) = T^H r, so rho_p sums conj(w[p, s]) scale[at[p, s]] r[at[p, s]]
    # over s: the real term s = 0 gives Re rho_p and the imaginary s = 1 Im rho_p
    rhos = np.empty(coords.shape[:-1] + (d, d), dtype=complex)
    parts = rhos.view(float).reshape(coords.shape[:-1] + (2 * d * d,))
    # every index is in range, and mode "clip" lets take write to ``parts`` unbuffered
    np.take(coords, at.ravel(), axis=-1, out=parts, mode="clip")
    parts *= ((w.real - w.imag) * scale[at]).ravel()
    # a diagonal entry's zero weight times a negative coordinate is -0
    parts[..., 1 :: 2 * (d + 1)] = 0.0
    return rhos


class BlockSet:
    """Real superoperator blocks B_k on the real coordinates of Hermitian
    states, assembled once on their union pattern.

    The union is one ``size`` x ``size`` CSR pattern, ``indptr`` and
    ``indices``, and row k of the contiguous (n_terms x nnz) ``terms``
    holds block k's entries on it, so sum_k c_k B_k is the pattern with the
    data c @ ``terms``.  Every array is read-only, so generators share one
    block set.  A block of another shape, or a complex one, raises
    ``ValidationError``.
    """

    __slots__ = ("size", "indptr", "indices", "terms")

    def __init__(self, size: int, blocks: Sequence[sparse.sparray]):
        if any(block.shape != (size, size) for block in blocks):
            raise ValidationError(f"superoperator blocks must be {size} x {size}")
        if any(block.dtype.kind == "c" for block in blocks):
            raise ValidationError("superoperator blocks must be real, in Hermitian coordinates")
        # one pass over the stacked blocks' COO triplets (a 0-row first block
        # lets ``blocks`` be empty): each is keyed by its position in its block
        stacked = sparse.vstack([sparse.csr_array((0, size)), *blocks], format="csr")
        stacked.eliminate_zeros()
        term, rows = np.divmod(stacked.tocoo().row, size)
        keys, at = np.unique(np.ravel_multi_index((rows, stacked.indices), (size, size)),
                             return_inverse=True)
        terms = np.zeros((len(blocks), keys.size))
        np.add.at(terms, (term, at), stacked.data)
        indptr = np.searchsorted(keys // size, np.arange(size + 1))
        # scipy picks the index dtype that its CSR kernels take
        pattern = sparse.csr_array((np.zeros(keys.size), keys % size, indptr), shape=(size, size))
        for a in (pattern.indptr, pattern.indices, terms):
            a.setflags(write=False)
        self.size, self.indptr, self.indices, self.terms = (size, pattern.indptr,
                                                            pattern.indices, terms)


class Generator:
    """Linear map L(t) = sum_k c_k(t) B_k on the real coordinates of
    Hermitian states, with real blocks and real coefficients.

    ``blocks`` is the ``BlockSet`` of the B_k, passed assembled or as a
    sequence of sparse blocks to assemble, and ``coeffs`` the function
    c(t); a complex block, blocks that do not fit ``space``, or
    coefficients that are not a function of t raise ``ValidationError``.

    The generator holds L at the times of its last ``fill``, each as a row
    of its own data buffer, which no other generator shares: the stepper
    fills a step's stage times at once, one coefficient block and one
    product for all of them, and every call at one of those times only
    applies its row.  A call at any other time fills that time alone.
    """

    __slots__ = ("space", "blocks", "coeffs", "_data", "_rows", "_filled")

    def __init__(
        self,
        space: HilbertSpace,
        blocks: BlockSet | Sequence[sparse.sparray],
        coeffs: Callable[[float], np.ndarray],
    ):
        d2 = space.dim**2
        if not isinstance(blocks, BlockSet):
            blocks = BlockSet(d2, blocks)
        elif blocks.size != d2:
            raise ValidationError(f"superoperator blocks must be {d2} x {d2}")
        if not callable(coeffs):
            raise ValidationError("generator coefficients must be a function c(t)")
        self.space, self.blocks, self.coeffs = space, blocks, coeffs
        # the data buffer, its rows as views, and time -> the row holding L there
        self._data = np.empty((0, blocks.terms.shape[1]))
        self._rows = ()
        self._filled = {}

    def fill(self, times: Sequence[float]) -> None:
        """Hold L at each distinct time of ``times``: c is read once per
        time, in order, the reads are stacked into one (m x n_terms)
        block, and its product with ``blocks.terms`` gives the m data rows.

        A read that is not n_terms values, a complex coefficient or a value
        that is not a number (a dtype kind outside ``biuf``, the rule
        ``serialize.write_series`` applies) raises ``ValidationError``, a
        non-finite one ``IntegrationError`` rather than failing the
        stepper's error estimate; each names the earliest time it occurs
        at.  The held times are dropped before the reads, so a fill that
        raises leaves no stale L behind and a call there raises again."""
        self._filled = {}
        times = dict.fromkeys(times)
        reads = [self.coeffs(t) for t in times]
        n = len(self.blocks.terms)
        try:
            block = np.array(reads)
        except ValueError:  # a ragged read
            block = None
        if block is None or block.shape != (len(times), n) or block.dtype.kind not in "biuf":
            for t, c in zip(times, reads):
                try:
                    c = np.asarray(c)
                except ValueError:  # ragged
                    c = None
                if c is None or c.shape != (n,):
                    raise ValidationError(f"not {n} generator coefficients at t = {t:.6g} ns")
                if c.dtype.kind == "c":
                    raise ValidationError(f"complex generator coefficient at t = {t:.6g} ns")
                if c.dtype.kind not in "biuf":
                    raise ValidationError(
                        f"generator coefficient that is not a number at t = {t:.6g} ns")
        if not np.isfinite(block).all():
            t = list(times)[np.argmin(np.isfinite(block).all(axis=1))]
            raise IntegrationError(f"non-finite generator coefficient at t = {t:.6g} ns")
        if len(times) > len(self._rows):
            self._data = np.empty((len(times), self._data.shape[1]))
            self._rows = tuple(self._data)
        np.matmul(block, self.blocks.terms, out=self._data[: len(times)])
        self._filled = dict(zip(times, self._rows))

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        """The right-hand side L(t) y.  ``y`` holds the real coordinates
        of k states as the columns of a d^2 x k matrix, flattened row-major
        as the ODE solver passes it, and the result is flattened alike.

        L(t) is read from the last fill when it holds t, and filled at t
        alone otherwise.  The product is scipy's compiled CSR kernel
        ``csr_matvecs``, the one ``csr_array @`` ends in, called without
        scipy's dispatch; it checks no bounds, so a ``y`` whose size is not
        a multiple of d^2 raises ``ValidationError`` first.  Each call
        returns a new array."""
        blocks = self.blocks
        n = blocks.size
        if y.size % n:
            raise ValidationError(f"{y.size} coordinates do not form columns of length {n}")
        data = self._filled.get(t)
        if data is None:
            self.fill((t,))
            data = self._filled[t]
        # a fresh output: the stepper keeps the returned array as its next f
        out = np.zeros(y.size, dtype=np.result_type(data, y))
        csr_matvecs(n, n, y.size // n, blocks.indptr, blocks.indices, data, y.ravel(), out)
        return out


def _block(*terms: tuple[complex, np.ndarray, np.ndarray]) -> sparse.csr_array:
    """Real sparse block T B T^H of B: rho -> sum w a rho b over the (w, a, b) terms.

    Each term is the Kronecker product w (a kron b^T) on the row-major
    vec(rho), built from the nonzeros of a and b alone.  Its entries are
    carried to the real coordinates with the unscaled weights of T, which
    are 1 and +-i, summed, and then scaled.  A map that does not preserve
    Hermiticity has a complex block, and raises ``ValidationError``.
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
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    # entry (p, q) of B adds w[p, s] B_pq conj(w[q, r]) to entry (at[p, s], at[q, r])
    _, _, at, weight, scale = _coordinates(n)
    vals = (vals[:, None, None] * weight[rows][:, :, None] * weight[cols].conj()[:, None, :]).ravel()
    keys = (at[rows][:, :, None] * n * n + at[cols][:, None, :]).ravel()
    keys, where = np.unique(keys[vals != 0], return_inverse=True)
    vals = vals[vals != 0]
    rows, cols = np.divmod(keys, n * n)
    scaled = scale[rows] * scale[cols]
    real = np.bincount(where, vals.real, keys.size) * scaled
    imag = np.bincount(where, vals.imag, keys.size) * scaled
    if np.abs(imag).max(initial=0.0) > REAL_BLOCK_RTOL * np.hypot(real, imag).max(initial=0.0):
        raise ValidationError("superoperator does not preserve Hermiticity")
    keep = real != 0
    indptr = np.searchsorted(rows[keep], np.arange(n * n + 1))
    return sparse.csr_array((real[keep], cols[keep], indptr), shape=(n * n, n * n))


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
    eye = np.eye(a.shape[0])
    anti = a.conj().T @ b + b.conj().T @ a
    return _block(
        (1.0, a, b.conj().T), (1.0, b, a.conj().T), (-0.5, anti, eye), (-0.5, eye, anti)
    )


def expectations(rhos: np.ndarray, observables: dict[str, np.ndarray] | None) -> dict:
    """Real series Tr(O rho) over a stack (..., d, d), one per named observable O."""
    obs = (observables or {}).items()
    return {name: np.einsum("ab,...ba->...", op, rhos).real for name, op in obs}


def _check_and_repair(rhos: np.ndarray, tol: float, times: np.ndarray) -> None:
    """Check and repair a stack (n_times, k, d, d) of integrated states in place.

    The stack must be exactly Hermitian, as ``from_coords`` builds it; its
    Hermiticity is neither measured nor restored.  A non-finite state is
    rejected before any arithmetic on the stack.  Per state: trace drift
    up to 100 tol passes, and the lowest eigenvalue must be at least
    -POSITIVITY_CLIP.  A state whose lowest eigenvalue is below
    -EIG_ATOL / d is rebuilt with its negative eigenvalues clipped to zero;
    one between -EIG_ATOL / d and zero is left as it is.  The 1/d keeps
    the reduced states valid too: tracing out a factor of dimension d_B
    can lower the lowest eigenvalue d_B-fold, so a partial trace of a
    state left unrebuilt stays above -EIG_ATOL, the bound
    ``check_states`` holds every state to.  Every state is then
    retraced.  An error names the earliest time at which a state fails a
    check.

    Positivity is screened, as in ``check_states``, by one Cholesky
    factor of rho + EIG_ATOL / d I over the whole stack; eigenvalues are
    read, again over the whole stack, only where it fails."""
    finite = np.isfinite(rhos).all(axis=(-2, -1))
    if not finite.all():
        i = np.argwhere(~finite)[0, 0]
        raise DiagnosticsError(f"non-finite state at t = {times[i]:.6g} ns")
    d = rhos.shape[-1]
    drift = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    # each state's lowest eigenvalue when the screen fails, and 0 when every
    # state passes it, each lowest eigenvalue then being above -EIG_ATOL / d
    try:
        np.linalg.cholesky(rhos + EIG_ATOL / d * np.eye(d))
        low = np.zeros(rhos.shape[:-2])
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(rhos)[..., 0]
    bad = ~(drift <= 100 * tol) | ~(-low <= POSITIVITY_CLIP)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        t = times[i]
        if not drift[i, j] <= 100 * tol:
            raise DiagnosticsError(f"trace drift {drift[i, j]:.2e} at t = {t:.6g} ns")
        raise DiagnosticsError(f"negative eigenvalue {low[i, j]:.2e} at t = {t:.6g} ns")
    rebuild = low < -EIG_ATOL / d
    rhos[rebuild] = clip_negative(rhos[rebuild])
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[..., None, None]


# The Dormand-Prince 5(4) pair with FSAL (Dormand and Prince, J. Comput.
# Appl. Math. 6, 19 (1980)): stage times DP_C, stage weights DP_A, the
# fifth-order weights DP_B, the error weights DP_E (fifth minus fourth
# order, the last on the FSAL stage) and DP_P, the coefficients of the
# quartic dense output (Shampine, Math. Comp. 46, 135 (1986)).  They equal
# the arrays of scipy's RK45, so the stepper below takes the same steps.
DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
for _a in (DP_C, DP_A, DP_B, DP_E, DP_P):
    _a.setflags(write=False)
# stages 1 to 5: their times c_s as floats, and row s of DP_A up to the diagonal
DP_STAGE_C = DP_C[1:].tolist()
DP_STAGE_A = tuple(DP_A[s, :s] for s in range(1, 6))
# step control: a step grows at most MAX_FACTOR-fold and shrinks at most
# to MIN_FACTOR, by SAFETY (err)^(-1/5), the error being of fourth order
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 5


class Solution(NamedTuple):
    """``y`` (n, len(t_eval)) holds the solution at the sample times, and
    ``nfev`` counts the right-hand side calls."""

    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(x: np.ndarray) -> float:
    """The RMS norm ||x|| / sqrt(n) of a real 1-D array, ||x|| the square
    root of the BLAS dot x.x, the bits ``np.linalg.norm`` gives."""
    return math.sqrt(x.dot(x)) / x.size**0.5


def _first_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """Starting step of Hairer, Norsett and Wanner, Solving ODEs I,
    Sec. II.4, from one explicit Euler step; it makes one RHS call."""
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def solve_ivp(fun: Callable[[float, np.ndarray], np.ndarray], t_span: tuple[float, float],
              y0: np.ndarray, t_eval: np.ndarray, rtol: float, atol: float) -> Solution:
    """Integrate dy/dt = fun(t, y) over t_span = (t0, tf), t0 < tf, with the
    Dormand-Prince 5(4) pair, sampling the sorted times ``t_eval`` in
    [t0, tf] by each step's quartic dense output.

    The step is accepted when the RMS norm of the error estimate, scaled
    per component by atol + rtol max(|y|, |y_new|), is below 1.  The
    arithmetic is that of scipy's ``solve_ivp(method="RK45")``: the same
    ``np.dot`` stage sums, error norm, step control, starting step and
    dense output, so both take the same steps and return the same
    samples.  Unlike it, a stepper fed a NaN by the right-hand side takes
    a NaN step and fails at once; scipy's shrinks a NaN step forever.

    The arrays are numpy's; the scalars (times, step sizes, the error
    norm and the step factor) are Python floats, with the same values
    numpy's float64 scalars would hold, and the next sample time is found
    by ``bisect`` on a list of ``t_eval``.  The error norm of the real y
    is sqrt(e.e), the bits ``np.linalg.norm`` gives, the scale is built
    in place, and an accepted step's |y_new| is the next step's |y|.
    ``nfev`` counts the calls of ``fun``: two to start, six per
    attempted step.

    A ``fun`` with a ``begin_step`` method is given each attempted step's
    five distinct stage times t + c_s h, as a list, before its stages are
    evaluated, and is then called at exactly those times: stages 1 to 5
    and the first-same-as-last call, which shares the last stage's time.
    The two starting calls come outside any step.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    t_eval = np.asarray(t_eval)
    times = t_eval.tolist()
    begin_step = getattr(fun, "begin_step", None)
    f = fun(t, y)
    h_abs = float(_first_step(fun, t, y, f, t_bound, rtol, atol))
    # two calls so far, then six per attempted step
    nfev = 2
    k = np.empty((7, y.size))
    samples, i_eval = [], 0
    abs_y = np.abs(y)
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return Solution(np.empty((y.size, 0)), nfev, False,
                                f"step size {h_abs:.3g} ns, below {min_step:.3g} ns, "
                                f"at t = {t:.6g} ns")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            stage_times = [t + c * h for c in DP_STAGE_C]
            if begin_step is not None:
                begin_step(stage_times)
            k[0] = f
            for s, (ts, a) in enumerate(zip(stage_times, DP_STAGE_A), 1):
                k[s] = fun(ts, y + np.dot(k[:s].T, a) * h)
            y_new = y + h * np.dot(k[:-1].T, DP_B)
            # at t + h, the last stage's time, which may differ from t_new
            # in the last bit
            f_new = k[-1] = fun(t + h, y_new)
            nfev += 6
            abs_y_new = np.abs(y_new)
            # atol + max(|y|, |y_new|) rtol and the scaled error, in place
            scale = np.maximum(abs_y, abs_y_new)
            scale *= rtol
            scale += atol
            err = np.dot(k.T, DP_E)
            err *= h
            err /= scale
            error = _rms(err)
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR, SAFETY * error**ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            # max(MIN_FACTOR, x) with x first, so a NaN error makes a NaN step
            h_abs *= max(SAFETY * error**ERROR_EXPONENT, MIN_FACTOR)
            rejected = True
        i_new = bisect.bisect_right(times, t_new)
        if i_new > i_eval:
            # y(t + x h) = y + h Q (x, x^2, x^3, x^4)
            x = (t_eval[i_eval:i_new] - t) / h
            powers = np.cumprod(np.tile(x, (4, 1)), axis=0)
            sample = h * np.dot(k.T.dot(DP_P), powers)
            sample += y[:, None]
            samples.append(sample)
            i_eval = i_new
        t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
    return Solution(np.hstack(samples), nfev, True, "reached the end of the interval")


class _Piece:
    """The right-hand side of one piece [a, b]: L(min(t, last)) y, ``last``
    being b^-, with each step's stage times filled at once."""

    __slots__ = ("generator", "last")

    def __init__(self, generator: Generator, last: float):
        self.generator, self.last = generator, last

    def begin_step(self, times: list[float]) -> None:
        last = self.last
        self.generator.fill([min(t, last) for t in times])

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.generator(min(t, self.last), y)


def _integrate(generator: Generator, y: np.ndarray, grid: np.ndarray, tol: float,
               breakpoints: Sequence[float]) -> np.ndarray:
    """``solve_ivp`` across ``grid``, restarting at each breakpoint, from the
    (d^2, k) coordinates ``y``; returns the sampled (d^2 k, n_times) coordinates,
    row-major in (d^2, k).

    Each piece [a, b] integrates the restriction of L to it (Hairer,
    Norsett and Wanner, Solving ODEs I, Sec. II.6): the generator is read
    at min(t, b^-), b^- the float just below b.  The stages that land on b
    thus see L's left limit there, not the next piece's value; a
    coefficient that jumps at b would otherwise enter the error estimate
    of every step that reaches b, and the steps would shrink toward it."""
    y = y.reshape(-1)
    t0, tf = grid[0], grid[-1]
    cuts = sorted({t0, tf} | {b for b in breakpoints if t0 < b < tf})
    # segment i samples grid[ends[i]:ends[i + 1]], the grid points in
    # (cuts[i], cuts[i + 1]], and the first segment t0 as well
    ends = np.searchsorted(grid, cuts, side="right")
    ends[0] = 0
    samples = []
    for a, b, lo, hi in zip(cuts, cuts[1:], ends, ends[1:]):
        # always sample the segment endpoint so the next segment restarts there
        t_eval = grid[lo:hi] if hi > lo and grid[hi - 1] == b else np.append(grid[lo:hi], b)
        sol = solve_ivp(_Piece(generator, math.nextafter(b, -math.inf)), (a, b), y, t_eval,
                        rtol=tol, atol=tol * 1e-2)
        if not sol.success:
            raise IntegrationError(f"integration failed on [{a:.6g}, {b:.6g}] ns: {sol.message}")
        samples.append(sol.y[:, : hi - lo])
        y = sol.y[:, -1].copy()
    return np.hstack(samples)


def evolve_generator(
    generator: Generator,
    rhos0: np.ndarray,
    grid: np.ndarray,
    tol: float = DEFAULT_TOL,
    breakpoints: Sequence[float] = (),
) -> np.ndarray:
    """Evolve dr/dt = L(t) r, r the real coordinates of rho, and sample it on ``grid``.

    ``rhos0`` is a (k, d, d) stack of density matrices on the generator's
    space, evolved as the columns of one real d^2 x k matrix.  Returns the
    read-only sampled stack (n_times, k, d, d), exactly Hermitian before
    its repair; ``expectations`` reads observables from it.

    The states are integrated by ``solve_ivp`` with relative tolerance
    ``tol`` (absolute tol / 100), which also sets the trace threshold of
    the repair pass.  ``breakpoints`` mark times where the coefficients
    are non-smooth or jump, and the window is integrated piecewise between
    them so the adaptive stepper never straddles one.  Each piece (a, b)
    reads the generator at min(t, b^-), b^- the float just below b: a
    coefficient's left limit at b, not its value there, which belongs to
    the next piece.
    """
    grid = np.asarray(grid, dtype=float)
    check_grid(grid)
    check_tol(tol)
    d = generator.space.dim
    rhos0 = np.asarray(rhos0, dtype=complex)
    if rhos0.ndim != 3 or rhos0.shape[1:] != (d, d) or not len(rhos0):
        raise ValidationError(
            f"initial states must be a (k, {d}, {d}) stack on the generator space"
        )
    check_states(rhos0)

    # column j of y is state j
    y = np.ascontiguousarray(to_coords(rhos0).T)
    samples = _integrate(generator, y, grid, tol, breakpoints)
    raw = from_coords(samples.reshape(d * d, len(rhos0), grid.size).T)

    _check_and_repair(raw, tol, grid)
    raw.setflags(write=False)
    return raw
