import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jcentropy import NoConvergence, eigvalsh, kron

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestKron:
    def test_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_case(self):
        assert_allclose(kron(SIGMA_Z, np.eye(2)), np.diag([1, 1, -1, -1]).astype(complex))

    def test_trace_multiplicative(self, rng):
        a = random_complex(rng, 3)
        b = random_complex(rng, 3)
        # oracle: direct product of the separately computed traces
        expected = (np.diag(a).sum()) * (np.diag(b).sum())
        assert abs(np.trace(kron(a, b)) - expected) < 1e-12

    def test_associativity(self, rng):
        a, b, c = (random_complex(rng, n) for n in (2, 3, 2))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.abs(left - right).max() < 1e-13

    def test_block_structure(self, rng):
        a = random_complex(rng, 2)
        b = random_complex(rng, 3)
        out = kron(a, b)
        assert_allclose(out[0:3, 3:6], a[0, 1] * b)


class TestHermitianEig:
    def test_pauli_z(self):
        assert_allclose(eigvalsh(SIGMA_Z), [-1.0, 1.0])

    def test_sorts_diagonal(self):
        w = eigvalsh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_eigenvalue_sum_is_trace(self, rng):
        for n in (2, 5, 16):
            h = random_complex(rng, n)
            h = h + h.conj().T
            w = eigvalsh(h)
            assert abs(w.sum() - np.trace(h).real) < 1e-10 * n

    def test_stack_matches_single(self, rng):
        stack = np.stack([random_complex(rng, 5) for _ in range(3)])
        stack = stack + stack.conj().transpose(0, 2, 1)
        batched = eigvalsh(stack)
        for k in range(3):
            assert np.array_equal(batched[k], eigvalsh(stack[k]))

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            eigvalsh(SIGMA_Z)


@st.composite
def hermitian_matrices(draw, max_dim=8):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    vals = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=2 * n * n,
            max_size=2 * n * n,
        )
    )
    flat = np.array(vals[: n * n]) + 1j * np.array(vals[n * n :])
    m = flat.reshape(n, n)
    return m + m.conj().T


@settings(max_examples=50, deadline=None)
@given(hermitian_matrices())
def test_eigenvalues_real_ascending_and_sum_to_trace(h):
    w = eigvalsh(h)
    assert np.all(np.diff(w) >= -1e-12)
    assert abs(w.sum() - np.trace(h).real) < 1e-10 * h.shape[0]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9),
)
def test_kron_trace_property(avals, bvals):
    a = np.array(avals).reshape(2, 2).astype(complex)
    b = np.array(bvals).reshape(3, 3).astype(complex)
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12
