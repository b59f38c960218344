"""The right-hand side of ``sawlink.dynamics.Generator`` through scipy's
sparse product, its matrix filled from c(t) at every call: the
oracle the generator's compiled product, and its fill of a step's stage
times in one block, are checked against."""

import numpy as np
from scipy import sparse

from sawlink.dynamics import Generator


def scipy_product(matrix, y: np.ndarray) -> np.ndarray:
    """L y by ``csr_array @``, ``y`` the row-major flattening of d^2 x k columns."""
    return (matrix @ y.reshape(matrix.shape[1], -1)).reshape(-1)


def matrix_at(generator: Generator, t: float) -> sparse.csr_array:
    """L(t) as a CSR matrix, the generator applied to the identity's
    columns: each entry comes back exactly, the kernel adding only zeros
    to it, and an entry that is 0 drops out of the pattern."""
    n = generator.blocks.size
    return sparse.csr_array(generator(t, np.eye(n).reshape(-1)).reshape(n, n))


class RefillingGenerator(Generator):
    """A ``Generator`` that fills L(t) at every call, whatever it holds, as
    one matrix-vector product of the block entries with c(t), and applies
    it by ``scipy_product``."""

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        b = self.blocks
        matrix = sparse.csr_array((b.terms.T @ self.coeffs(t), b.indices, b.indptr),
                                  shape=(b.size, b.size))
        return scipy_product(matrix, y)
