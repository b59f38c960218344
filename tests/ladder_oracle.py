"""The ladder's master equation built from its definition, the reference
``sawlink.multimode``'s one-excitation sector is checked against.

One excitation and mode loss keep the ladder inside the vacuum and the
one-excitation sector, so the reference lives on vacuum + sector: the
vacuum ket first, then the sector's kets in ``sector_hamiltonian``'s
order (the modes from the last to the first, then the qubit).  There
each lowering operator is the jump |vac><k| out of its own ket.
"""

import numpy as np

from sawlink.dynamics import Generator, commutator_superop, dissipator
from sawlink.ioshape import MHZ
from sawlink.qcore import HilbertSpace


def lowering_operators(n_a: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The qubit's sigma- and each mode's a_j, j = 0 .. n_a - 1, on vacuum + sector."""
    dim = n_a + 2

    def jump(k):
        op = np.zeros((dim, dim), dtype=complex)
        op[0, k] = 1.0
        return op

    # mode j is the sector's ket n_a - 1 - j, one past it here for the vacuum
    return jump(dim - 1), [jump(n_a - j) for j in range(n_a)]


def ladder_hamiltonian(p) -> np.ndarray:
    """sum_j Delta_j a_j^+ a_j + g (sp a_j + a_j^+ sm), rad/ns, on vacuum + sector."""
    sm, modes = lowering_operators(p.n_a)
    h = np.zeros((p.n_a + 2, p.n_a + 2), dtype=complex)
    for delta, a in zip(p.mode_detunings(), modes):
        h += delta * (a.conj().T @ a) + p.g * MHZ * (sm.conj().T @ a + a.conj().T @ sm)
    return h


def ladder_generator(p) -> Generator:
    """The ladder's master equation -i [H, rho] + kappa_a sum_j D[a_j] rho on
    vacuum + sector, kappa_a in 1/us: what ``decay_population`` solves
    without a generator."""
    _, modes = lowering_operators(p.n_a)
    blocks = [commutator_superop(ladder_hamiltonian(p))] + [dissipator(a) for a in modes]
    rates = np.array([1.0] + [p.kappa_a * 1e-3] * p.n_a)
    # vacuum + sector as one labelled mode, the space a Generator takes
    return Generator(HilbertSpace([p.n_a + 2], ["ladder"]), blocks, lambda t: rates)
