"""Regenerate the committed cross-check fixtures under src/tbma/fixtures/.

Each fixture freezes a small dataset, a consistent latent-score vector, a
covariance setting and a pair of models, so the closed-form/quadrature and
residual-rewrite comparisons are reproducible byte for byte.  Run from the
repository root:

    python3 scripts/make_fixtures.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tbma.core import ModelIndicator, TobitDataset
from tbma.oracle import SynthSpec, generate_synthetic

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "tbma" / "fixtures"

P = Q = 2
N = 15


def bits(text: str) -> np.ndarray:
    return np.array([c == "1" for c in text], dtype=bool)


def model(w: str, x: str) -> ModelIndicator:
    return ModelIndicator(bits(w + x), np.zeros(P + Q, dtype=bool), P)


def write_fixture(name, dataset: TobitDataset, z, gamma, phi, model_a, model_b, nodes, half_width=10.0):
    def bitstrings(model):
        # The fixture format stores each model's bits per equation.
        text = "".join("1" if b else "0" for b in model.include)
        return text[: model.p], text[model.p :]

    model_a_w, model_a_x = bitstrings(model_a)
    model_b_w, model_b_x = bitstrings(model_b)

    lines = [
        "# tbma-fixture-v1",
        f"# name = {name}",
        f"# gamma = {gamma!r}",
        f"# phi = {phi!r}",
        f"# nodes_per_axis = {nodes}",
        f"# half_width = {half_width!r}",
        f"# model_a_w = {model_a_w}",
        f"# model_a_x = {model_a_x}",
        f"# model_b_w = {model_b_w}",
        f"# model_b_x = {model_b_x}",
        ",".join(list(dataset.column_names_w) + list(dataset.column_names_x) + ["y", "censored", "z"]),
    ]
    for i in range(dataset.n):
        row = ["%.17g" % v for v in dataset.W[i]]
        row += ["%.17g" % v for v in dataset.X[i]]
        row += ["%.17g" % dataset.y[i], "1" if dataset.censored[i] else "0", "%.17g" % z[i]]
        lines.append(",".join(row))
    path = OUT_DIR / f"{name}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} (n_o={dataset.n_o}, d_a={model_a.d}, d_b={model_b.d})")


def from_generator(seed, gamma, phi, theta, beta, distribution="normal"):
    spec = SynthSpec(
        n=N, p=P, q=Q,
        true_theta=np.asarray(theta, dtype=float),
        true_beta=np.asarray(beta, dtype=float),
        gamma=gamma, phi=phi,
        covariate_distribution=distribution, seed=seed,
    )
    dataset, truth = generate_synthetic(spec)
    return dataset, truth.z


def all_censored(seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((N, P))
    X = rng.standard_normal((N, Q))
    z = -0.05 - rng.exponential(size=N)
    dataset = TobitDataset(
        W=W, X=X, y=np.zeros(N), censored=np.ones(N, dtype=bool),
        column_names_w=("w1", "w2"), column_names_x=("x1", "x2"),
    )
    return dataset, z


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cases = [
        # Two fixtures keep a 3-dimensional model so the tensor grid is
        # exercised at full depth; the rest stay at d <= 2 where doubling the
        # resolution in the stability check remains cheap.
        ("fixture_01", from_generator(101, 0.0, 1.0, [0.6, 0.0], [0.8, -0.5]),
         0.0, 1.0, model("10", "10"), model("10", "11"), 101, 10.0),
        ("fixture_02", from_generator(202, 0.5, 1.0, [0.5, -0.4], [0.7, 0.0]),
         0.5, 1.0, model("10", "10"), model("10", "01"), 201, 10.0),
        ("fixture_03", from_generator(303, 1.0, 0.5, [0.8, 0.3], [0.0, 0.0]),
         1.0, 0.5, model("10", "00"), model("10", "10"), 201, 8.0),
        ("fixture_04", from_generator(404, -0.7, 2.0, [0.0, 0.5], [0.9, 0.0]),
         -0.7, 2.0, model("00", "10"), model("10", "10"), 201, 10.0),
        ("fixture_05", from_generator(505, 0.3, 1.0, [0.4, 0.0], [0.6, 0.2]),
         0.3, 1.0, model("00", "00"), model("00", "10"), 201, 10.0),
        ("fixture_06", all_censored(606),
         0.0, 1.0, model("10", "00"), model("10", "01"), 201, 10.0),
        # Strong correlation sharpens the integrand; a narrower window keeps
        # the grid spacing well below the conditional posterior scale.
        ("fixture_07", from_generator(707, 2.0, 0.5, [0.5, 0.5], [0.3, -0.8]),
         2.0, 0.5, model("11", "00"), model("11", "01"), 121, 5.0),
        ("fixture_08", from_generator(808, 0.5, 1.0, [-1.2, 0.4], [0.5, 0.5]),
         0.5, 1.0, model("10", "10"), model("01", "10"), 201, 10.0),
        ("fixture_09", from_generator(909, -0.3, 4.0, [0.7, -0.6], [1.0, 0.0]),
         -0.3, 4.0, model("01", "10"), model("10", "10"), 201, 10.0),
        ("fixture_10", from_generator(1010, 0.8, 1.5, [0.0, 0.9], [0.0, 0.7], "uniform"),
         0.8, 1.5, model("01", "01"), model("01", "10"), 201, 10.0),
    ]
    for name, (dataset, z), gamma, phi, model_a, model_b, nodes, half_width in cases:
        write_fixture(name, dataset, z, gamma, phi, model_a, model_b, nodes, half_width)


if __name__ == "__main__":
    main()
