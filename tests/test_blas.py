"""Every OpenBLAS pool runs on one thread during ``TobitDataset.split`` and
``run_chain``; each gets its thread count back afterwards, unless the
environment fixes the count.  So a chain does not depend on the thread count,
also on data large enough for OpenBLAS to thread its products."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tbma
import tbma.chain as chain_mod
import tbma.core as core_mod
from conftest import make_dataset, unit_prior
from tbma.blas import THREAD_ENV, blas_single_thread, openblas_libraries
from tbma.chain import ChainConfig, run_chain
from tbma.errors import NumericalError

LIBS = openblas_libraries()

CHAIN = ChainConfig(iterations=5, burn_in=0, seed=1, chains=1)


def threads():
    return [lib.threads() for lib in LIBS]


@pytest.fixture
def two_threads(monkeypatch):
    """No thread-count variable in the environment, and every pool at two threads."""
    if not LIBS:
        pytest.skip("no OpenBLAS library whose thread count can be set")
    for name in THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    before = threads()
    for lib in LIBS:
        lib.set_threads(2)
    yield
    for lib, count in zip(LIBS, before):
        lib.set_threads(count)


def record_threads(monkeypatch, module, name, fail_at=None):
    """Record every pool's thread count at each call of ``module.name``;
    optionally raise a NumericalError at call ``fail_at``."""
    seen = []
    real = getattr(module, name)

    def recording(*args):
        seen.append(threads())
        if len(seen) == fail_at:
            raise NumericalError("synthetic failure")
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return seen


def test_one_thread_during_sweeps_and_restored_after(monkeypatch, two_threads):
    seen = record_threads(monkeypatch, chain_mod, "sample_latent")
    run_chain(make_dataset(n=20, seed=3), unit_prior(2, 2), CHAIN)
    assert seen == [[1] * len(LIBS)] * CHAIN.iterations
    assert threads() == [2] * len(LIBS)


def test_one_thread_during_split_and_restored_after(monkeypatch, two_threads):
    """``row_dots`` forms ``cross_y_unc``, the last product of ``split``."""
    seen = record_threads(monkeypatch, core_mod, "row_dots")
    make_dataset(n=20, seed=3).split
    assert seen == [[1] * len(LIBS)]
    assert threads() == [2] * len(LIBS)


def test_split_inside_run_chain_restores_the_outer_count(monkeypatch, two_threads):
    """The dataset's split is first formed inside ``run_chain``: its pin ends
    with every pool back at the chain's one thread, not at two."""
    in_split = record_threads(monkeypatch, core_mod, "row_dots")
    in_sweeps = record_threads(monkeypatch, chain_mod, "sample_latent")
    run_chain(make_dataset(n=20, seed=3), unit_prior(2, 2), CHAIN)
    assert in_split == [[1] * len(LIBS)]
    assert in_sweeps == [[1] * len(LIBS)] * CHAIN.iterations
    assert threads() == [2] * len(LIBS)


def test_nested_pins_restore_the_outer_count(two_threads):
    with blas_single_thread():
        with blas_single_thread():
            assert threads() == [1] * len(LIBS)
        assert threads() == [1] * len(LIBS)
    assert threads() == [2] * len(LIBS)


def test_restored_after_numerical_error(monkeypatch, two_threads):
    seen = record_threads(monkeypatch, chain_mod, "sample_latent", fail_at=3)
    with pytest.raises(NumericalError, match="aborted at sweep 2"):
        run_chain(make_dataset(n=20, seed=3), unit_prior(2, 2), CHAIN)
    assert seen == [[1] * len(LIBS)] * 3
    assert threads() == [2] * len(LIBS)


def test_pin_restored_when_the_block_raises(two_threads):
    with pytest.raises(NumericalError, match="synthetic"):
        with blas_single_thread():
            assert threads() == [1] * len(LIBS)
            raise NumericalError("synthetic failure")
    assert threads() == [2] * len(LIBS)


@pytest.mark.parametrize("variable", THREAD_ENV)
def test_pin_skipped_when_the_environment_sets_threads(monkeypatch, two_threads, variable):
    monkeypatch.setenv(variable, "2")
    with blas_single_thread():
        assert threads() == [2] * len(LIBS)
    assert threads() == [2] * len(LIBS)


def test_split_grams_on_one_thread_match_the_two_thread_product(two_threads):
    """At the paper's width, the Grams ``split`` forms on one thread have the
    bits of the same products at two threads."""
    ds = make_dataset(n=6000, p=56, q=56, seed=4)
    split = ds.split
    assert threads() == [2] * len(LIBS)
    unc = ~ds.censored
    WX = np.hstack([ds.W, ds.X])[unc].T.copy()
    W_cen = ds.W[~unc].T.copy()
    gram = WX @ WX.T
    assert np.array_equal(np.block([[split.gram_ww_unc, split.gram_wx_unc],
                                    [split.gram_wx_unc.T, split.gram_xx_unc]]), gram)
    assert np.array_equal(split.gram_ww_cen, W_cen @ W_cen.T)


def run_child(code, variables):
    """Run ``code`` with no variable of THREAD_ENV set but ``variables``;
    return the JSON its last output line holds."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(tbma.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


PINNED_CHILD = """
import json

import tbma.chain as chain_mod
import tbma.core as core_mod
from tbma.blas import openblas_libraries
from tbma.chain import ChainConfig, default_prior, run_chain
from tbma.oracle import SynthSpec, generate_synthetic

libs = openblas_libraries()
seen = set()

def recording(real):
    def call(*args):
        seen.add(tuple(lib.threads() for lib in libs))
        return real(*args)
    return call

chain_mod.sample_latent = recording(chain_mod.sample_latent)
core_mod.row_dots = recording(core_mod.row_dots)
ds, _ = generate_synthetic(SynthSpec(n=50, p=2, q=2, true_theta=[1.0, 0.0], true_beta=[1.0, 0.0],
                                     gamma=0.5, phi=1.0, seed=1))
before = [lib.threads() for lib in libs]
run_chain(ds, default_prior(2, 2), ChainConfig(iterations=3, burn_in=0, chains=1))
print(json.dumps({"before": before, "during": sorted(seen), "after": [lib.threads() for lib in libs]}))
"""


@pytest.mark.parametrize("variable", THREAD_ENV)
def test_explicit_environment_wins(variable):
    counts = run_child(PINNED_CHILD, {variable: "2"})
    assert counts["before"] == [2] * len(counts["before"])
    assert counts["during"] == [counts["before"]]
    assert counts["after"] == counts["before"]


def test_child_without_environment_is_pinned():
    counts = run_child(PINNED_CHILD, {})
    assert counts["before"]
    assert counts["during"] == [[1] * len(counts["before"])]
    assert counts["after"] == counts["before"]


# Past OpenBLAS's threading thresholds: 12 180 uncensored rows, so the row
# dots of that half exceed 10 000 elements and the full model's products of
# 56 rows by that half exceed 460 800.
LARGE_CHAIN_CHILD = """
import hashlib
import json

import numpy as np

from tbma.chain import ChainConfig, default_prior, run_chain
from tbma.oracle import SynthSpec, generate_synthetic

width = 56
theta = [1.0, -0.5, 0.5, -0.5, 0.4] + [0.0] * (width - 5)
beta = [1.0, 0.8, -0.6, 0.5, 0.3] + [0.0] * (width - 5)
ds, _ = generate_synthetic(SynthSpec(n=16000, p=width, q=width, true_theta=theta, true_beta=beta,
                                     gamma=0.5, phi=1.0, seed=7, intercepts=True))
out = run_chain(ds, default_prior(width, width), ChainConfig(iterations=12, burn_in=0, seed=3, chains=1,
                                                             init="full-model"))
digest = hashlib.sha256()
for part in (out.psis, out.gammas, out.phis, out.models):
    digest.update(np.ascontiguousarray(part).tobytes())
print(json.dumps({"uncensored": ds.n_o, "hash": digest.hexdigest()}))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS runs one thread on a single available CPU, so the threaded case cannot arise")
def test_large_chain_is_the_same_at_one_thread_and_at_the_default():
    one = run_child(LARGE_CHAIN_CHILD, {"OPENBLAS_NUM_THREADS": "1"})
    default = run_child(LARGE_CHAIN_CHILD, {})
    assert one["uncensored"] > 10_000 and 56 * one["uncensored"] > 460_800
    assert default == one
