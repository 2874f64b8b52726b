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


def lapack_failing_at(name):
    """A stand-in for ``states._lapack`` whose LAPACK routine ``name`` reports a failure
    to converge, by a nonzero INFO; every other routine is the real one."""
    info_arg = {"dsterf": 3, "dsbev": 10}[name]
    real = states._lapack

    def failing(*args):
        ctypes.c_int64.from_address(args[info_arg]).value = 1

    return lambda routine: failing if routine == name else real(routine)


def lapack_absent(name):
    """A stand-in for ``states._lapack`` under which numpy's LAPACK lacks ``name``."""
    real = states._lapack
    return lambda routine: None if routine == name else real(routine)
