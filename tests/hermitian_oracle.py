"""The unitary T of ``sawlink.dynamics``'s real coordinates, built densely
from its definition, as the oracle its coordinate maps and blocks are
checked against."""

import numpy as np


def hermitian_basis(d: int) -> np.ndarray:
    """The unitary T with T vec(rho) the real coordinates of a Hermitian
    d x d matrix rho, vec row-major: its diagonal, then sqrt 2 Re rho_ij and
    then sqrt 2 Im rho_ij over the upper entries i < j in row-major order."""
    iu, ju = np.triu_indices(d, 1)
    upper, lower = iu * d + ju, ju * d + iu
    re, im = d + np.arange(iu.size), d + iu.size + np.arange(iu.size)
    t = np.zeros((d * d, d * d), dtype=complex)
    t[np.arange(d), np.arange(d) * (d + 1)] = 1.0
    # sqrt 2 Re rho_ij = (rho_ij + rho_ji) / sqrt 2 and
    # sqrt 2 Im rho_ij = (rho_ij - rho_ji) / (sqrt 2 i)
    t[re, upper] = t[re, lower] = 1 / np.sqrt(2)
    t[im, upper], t[im, lower] = -1j / np.sqrt(2), 1j / np.sqrt(2)
    return t
