from pathlib import Path

import pytest

# hypothesis also draws constants harvested from the loaded non-test modules;
# loading every package module here gives the same pool under any test selection
import lcutrunc.cli  # noqa: F401
from lcutrunc.hamiltonian import parse_hamiltonian

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def two_term():
    """The worked two-weight example: weights 1.0 and 0.1 on two qubits."""
    return parse_hamiltonian("1.0 ZI\n0.1 XX", label="two-term")


@pytest.fixture
def single_z():
    return parse_hamiltonian("1.0 Z", label="single-z")


@pytest.fixture
def h2_path():
    return DATA_DIR / "h2_sto3g.txt"
