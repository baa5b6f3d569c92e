import pathlib

import pytest
from hypothesis import settings

from credal import Frame

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
# the tolerance every law and worked example checks derived floats to
TOL = 1e-12

# one profile for the suite: a loaded machine may run an example slowly, which is no fault of the code
settings.register_profile("credal", deadline=None)
settings.load_profile("credal")


@pytest.fixture
def repo_root(monkeypatch) -> pathlib.Path:
    """Run the test from the repository root so sample paths resolve."""
    monkeypatch.chdir(REPO_ROOT)
    return REPO_ROOT


@pytest.fixture
def w3() -> Frame:
    return Frame(["w1", "w2", "w3"])
