import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env(*paths, **overrides) -> dict:
    """Environment of a child ``python -m qeuclid.cli``: ``paths``, then ``src``, on its PYTHONPATH.

    pytest's ``pythonpath`` setting reaches only the test process, so an
    uninstalled checkout needs ``src`` passed on to every child it starts.
    """
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, paths), str(SRC), env.get("PYTHONPATH")]))
    return env


def spec_mixture(spec):
    """The GaussianMixture whose components a drawn element's ``spec`` records."""
    from qeuclid.symbols import GaussianMixture

    return GaussianMixture(tuple((c["center"], c["width"], complex(*c["amp"])) for c in spec["components"]))


@pytest.fixture(scope="session")
def theta():
    from qeuclid.weyl import DeformationMatrix

    return DeformationMatrix.canonical(1.0)


@pytest.fixture(scope="session")
def small_backend():
    """Cheap quantized backend shared by harness-level tests."""
    from qeuclid.harness import MoyalBackend

    return MoyalBackend(h=1.0, fock_dim=48, half_width=8.0, n=48)


@pytest.fixture(scope="session")
def classical_backend():
    from qeuclid.oracle import ClassicalBackend

    return ClassicalBackend(half_width=64.0, n=4096)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
