"""scipy's OpenBLAS runs on one thread during ``run_chain`` and gets its
thread count back afterwards, unless the environment fixes the count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tbma
import tbma.chain as chain_mod
from conftest import make_dataset, unit_prior
from tbma.blas import THREAD_ENV, scipy_openblas
from tbma.chain import ChainConfig, run_chain
from tbma.errors import NumericalError

LIB = scipy_openblas()
pytestmark = pytest.mark.skipif(LIB is None, reason="scipy shares numpy's BLAS or has no OpenBLAS of its own")

CHAIN = ChainConfig(iterations=5, burn_in=0, seed=1, chains=1)


@pytest.fixture
def two_threads(monkeypatch):
    """No thread-count variable in the environment, and scipy's pool at two threads."""
    for name in THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    before = LIB.threads()
    LIB.set_threads(2)
    yield
    LIB.set_threads(before)


def record_threads(monkeypatch, fail_at=None):
    """Record scipy's thread count at every latent draw; optionally raise a
    NumericalError at draw ``fail_at``."""
    seen = []
    real = chain_mod.sample_latent

    def recording(*args):
        seen.append(LIB.threads())
        if len(seen) == fail_at:
            raise NumericalError("synthetic failure")
        return real(*args)

    monkeypatch.setattr(chain_mod, "sample_latent", recording)
    return seen


def test_one_thread_during_sweeps_and_restored_after(monkeypatch, two_threads):
    seen = record_threads(monkeypatch)
    run_chain(make_dataset(n=20, seed=3), unit_prior(2, 2), CHAIN)
    assert seen == [1] * CHAIN.iterations
    assert LIB.threads() == 2


def test_restored_after_numerical_error(monkeypatch, two_threads):
    seen = record_threads(monkeypatch, fail_at=3)
    with pytest.raises(NumericalError, match="aborted at sweep 2"):
        run_chain(make_dataset(n=20, seed=3), unit_prior(2, 2), CHAIN)
    assert seen == [1, 1, 1]
    assert LIB.threads() == 2


CHILD = """
import json

import tbma.chain as chain_mod
from tbma.blas import scipy_openblas
from tbma.chain import ChainConfig, default_prior, run_chain
from tbma.oracle import SynthSpec, generate_synthetic

lib = scipy_openblas()
seen = set()
real = chain_mod.sample_latent

def recording(*args):
    seen.add(lib.threads())
    return real(*args)

chain_mod.sample_latent = recording
ds, _ = generate_synthetic(SynthSpec(n=50, p=2, q=2, true_theta=[1.0, 0.0], true_beta=[1.0, 0.0],
                                     gamma=0.5, phi=1.0, seed=1))
before = lib.threads()
run_chain(ds, default_prior(2, 2), ChainConfig(iterations=3, burn_in=0, chains=1))
print(json.dumps({"before": before, "during": sorted(seen), "after": lib.threads()}))
"""


def run_child(variable):
    """Run CHILD with only ``variable`` (or no variable) of THREAD_ENV set to 2."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    if variable is not None:
        env[variable] = "2"
    env["PYTHONPATH"] = os.pathsep.join([str(Path(tbma.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("variable", THREAD_ENV)
def test_explicit_environment_wins(variable):
    counts = run_child(variable)
    assert counts["during"] == [counts["before"]]
    assert counts["after"] == counts["before"]


def test_child_without_environment_is_pinned():
    counts = run_child(None)
    assert counts["during"] == [1]
    assert counts["after"] == counts["before"]
