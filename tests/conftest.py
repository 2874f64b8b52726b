import ctypes

import numpy as np
import pytest

from jcentropy import BlochParams, bloch_qubit, product_state, states, thermal_field


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def field01():
    """Weakly excited thermal field at the converged truncation."""
    return thermal_field(0.1, 13)


@pytest.fixture(scope="session")
def ground_joint(field01):
    return product_state(bloch_qubit(BlochParams(1.0, -np.pi / 2)), field01)


@pytest.fixture(scope="session")
def excited_joint(field01):
    return product_state(bloch_qubit(BlochParams(1.0, np.pi / 2)), field01)


def random_density(rng, dim: int, dims=None):
    """Random full-rank density matrix via a Ginibre draw."""
    from jcentropy import validate_density

    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return validate_density(m, dims if dims is not None else (dim,))


def random_pure_product(rng, f_dim: int):
    """Random pure atom (x) pure field joint state on the truncated space."""
    from jcentropy import validate_density

    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    f = rng.normal(size=f_dim) + 1j * rng.normal(size=f_dim)
    f /= np.linalg.norm(f)
    psi = np.kron(a, f)
    return validate_density(np.outer(psi, psi.conj()), (2, f_dim))


def dsbev_failing(kd):
    """A stand-in for ``states._dsbev`` whose routine reports a failure to converge on
    band matrices of half-bandwidth ``kd`` and solves the others."""
    real = states._dsbev()

    def routine(*args):
        if ctypes.c_int64.from_address(args[3]).value == kd:
            ctypes.c_int64.from_address(args[10]).value = 1  # INFO: entries that did not converge
        else:
            real(*args)

    return lambda: routine


def dsbev_absent():
    """A stand-in for ``states._dsbev`` under which numpy's LAPACK lacks ``dsbev``."""
    return None
