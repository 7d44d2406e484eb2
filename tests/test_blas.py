"""scipy's OpenBLAS runs on one thread during ``run_chain``, and numpy's
during the Gram products of ``TobitDataset.split``; each gets its thread
count back afterwards, unless the environment fixes the count."""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import tbma
import tbma.chain as chain_mod
import tbma.core as core_mod
from conftest import make_dataset, unit_prior
from tbma.blas import THREAD_ENV, numpy_blas_single_thread, numpy_openblas, scipy_openblas
from tbma.chain import ChainConfig, run_chain
from tbma.errors import NumericalError

LIB = scipy_openblas()
NUMPY_LIB = numpy_openblas()
needs_scipy_lib = pytest.mark.skipif(LIB is None, reason="scipy shares numpy's BLAS or has no OpenBLAS of its own")

CHAIN = ChainConfig(iterations=5, burn_in=0, seed=1, chains=1)


@pytest.fixture
def two_threads(monkeypatch):
    """No thread-count variable in the environment, and scipy's pool at two threads."""
    if LIB is None:
        pytest.skip("scipy shares numpy's BLAS or has no OpenBLAS of its own")
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


@needs_scipy_lib
@pytest.mark.parametrize("variable", THREAD_ENV)
def test_explicit_environment_wins(variable):
    counts = run_child(variable)
    assert counts["during"] == [counts["before"]]
    assert counts["after"] == counts["before"]


@needs_scipy_lib
def test_child_without_environment_is_pinned():
    counts = run_child(None)
    assert counts["during"] == [1]
    assert counts["after"] == counts["before"]


@pytest.fixture
def numpy_two_threads(monkeypatch):
    """No thread-count variable in the environment, and numpy's pool at two threads."""
    if NUMPY_LIB is None:
        pytest.skip("numpy has no OpenBLAS of its own")
    for name in THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    before = NUMPY_LIB.threads()
    NUMPY_LIB.set_threads(2)
    yield
    NUMPY_LIB.set_threads(before)


def test_split_grams_on_one_thread_match_the_two_thread_product(monkeypatch, numpy_two_threads):
    """At the paper's width, the Grams ``split`` forms on one thread have the
    bits of the same products at two threads, and the pool gets its two
    threads back."""
    seen = []
    real = core_mod.numpy_blas_single_thread

    @contextmanager
    def recording():
        with real():
            seen.append(NUMPY_LIB.threads())
            yield

    monkeypatch.setattr(core_mod, "numpy_blas_single_thread", recording)
    ds = make_dataset(n=6000, p=56, q=56, seed=4)
    split = ds.split
    assert seen == [1]
    assert NUMPY_LIB.threads() == 2
    unc = ~ds.censored
    WX = np.hstack([ds.W, ds.X])[unc].T.copy()
    W_cen = ds.W[~unc].T.copy()
    gram = WX @ WX.T
    assert np.array_equal(np.block([[split.gram_ww_unc, split.gram_wx_unc],
                                    [split.gram_wx_unc.T, split.gram_xx_unc]]), gram)
    assert np.array_equal(split.gram_ww_cen, W_cen @ W_cen.T)


def test_numpy_pin_restored_when_the_block_raises(numpy_two_threads):
    with pytest.raises(NumericalError, match="synthetic"):
        with numpy_blas_single_thread():
            assert NUMPY_LIB.threads() == 1
            raise NumericalError("synthetic failure")
    assert NUMPY_LIB.threads() == 2


@pytest.mark.parametrize("variable", THREAD_ENV)
def test_numpy_pin_skipped_when_the_environment_sets_threads(monkeypatch, numpy_two_threads, variable):
    monkeypatch.setenv(variable, "2")
    with numpy_blas_single_thread():
        assert NUMPY_LIB.threads() == 2
    assert NUMPY_LIB.threads() == 2
