import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_density(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Full-rank (or given-rank) random density matrix on n qubits."""
    dim = 2**n
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_local_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Tensor product of n independent random 2 x 2 unitaries, qubit 0 leftmost."""
    u = np.array([[1.0 + 0j]])
    for _ in range(n):
        u = np.kron(u, random_unitary(2, rng))
    return u


def random_product_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Pure product state vector on n qubits."""
    psi = np.array([1.0 + 0j])
    for _ in range(n):
        part = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = np.kron(psi, part / np.linalg.norm(part))
    return psi


def bell_state() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.5
    return rho


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250822)
