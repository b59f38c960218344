"""The right-hand side of ``sawlink.dynamics.Generator`` through scipy's
sparse product, its matrix refilled from c(t) at every call: the oracle the
generator's compiled product, and its reuse of L at a repeated time, are
checked against."""

import numpy as np

from sawlink.dynamics import Generator


def scipy_product(matrix, y: np.ndarray) -> np.ndarray:
    """L y by ``csr_array @``, ``y`` the row-major flattening of d^2 x k columns."""
    return (matrix @ y.reshape(matrix.shape[1], -1)).reshape(-1)


class RefillingGenerator(Generator):
    """A ``Generator`` that refills its matrix from c(t) at every call and
    applies it by ``scipy_product``."""

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        np.matmul(self.values, self.coeffs(t), out=self.matrix.data)
        return scipy_product(self.matrix, y)
