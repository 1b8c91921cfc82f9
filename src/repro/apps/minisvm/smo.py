"""Binary C-SVC trained with a simplified SMO optimiser.

Solves the soft-margin SVM dual by iterating over violating pairs of
Lagrange multipliers (Platt's Sequential Minimal Optimization, in the
simplified pair-selection form): pick an example violating the KKT
conditions, pick a second example heuristically (max |E1 - E2|, with a
random fallback), solve the two-variable subproblem analytically, update
the bias, and repeat until no multiplier moves for a full pass.

Deterministic given the ``seed`` — important because the Fig. 9
benchmark compares the *same* training run across two enclave layouts.
Each error E_i is memoised until the next write to alpha or the bias,
as the same strided-column dot a fresh call runs; a single
``ay @ gram`` may sum in another order, which the thresholds amplify.
The second-choice candidates are ``rng.sample(range(n), 16)`` drawn
by ``_sample_range`` from the same generator words, so the stream and
every pick stay those of ``Random.sample``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.apps.minisvm.kernel import SvmError, make_kernel


def _sample_range(rng: random.Random, n: int, k: int) -> list:
    """``rng.sample(range(n), k)``: the same list from the same words.

    CPython's ``Random.sample`` step for step, with ``_randbelow(m)``
    inlined as ``getrandbits(m.bit_length())`` redrawn while ``>= m``:
    a shrinking pool when ``n`` is at most ``setsize``, else redraws
    over ``range(n)`` until a fresh index comes up.  The generator is
    left in the state ``sample`` would leave it; a test pins this.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    getrandbits = rng.getrandbits
    result = []
    if n <= setsize:
        pool = list(range(n))
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
        return result
    bits = n.bit_length()
    selected = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        result.append(j)
    return result


@dataclass
class BinaryModel:
    support_vectors: np.ndarray
    coefficients: np.ndarray     # alpha_i * y_i for the support vectors
    bias: float
    kernel_name: str
    gamma: float

    def decision(self, x: np.ndarray) -> np.ndarray:
        kernel = make_kernel(self.kernel_name, self.gamma)
        return kernel(x, self.support_vectors) @ self.coefficients \
            + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.decision(x) >= 0.0, 1, -1)


def train_binary(x: np.ndarray, y: np.ndarray, *, c: float = 1.0,
                 kernel: str = "rbf", gamma: float = 0.1,
                 tol: float = 1e-3, max_passes: int = 5,
                 max_iterations: int = 10_000,
                 seed: int = 0) -> BinaryModel:
    """Train a binary C-SVC.  ``y`` must be ±1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise SvmError("x must be (n, d) and y must be (n,)")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise SvmError("labels must be -1/+1")
    n = len(x)
    rng = random.Random(seed)
    kfun = make_kernel(kernel, gamma)
    gram = kfun(x, x)
    g, ys = gram.tolist(), y.tolist()

    alpha = [0.0] * n
    ay, errors = np.multiply(alpha, y), [None] * n
    bias = 0.0

    def error(i: int) -> float:
        if errors[i] is None:
            errors[i] = float(ay @ gram[:, i] + bias - ys[i])
        return errors[i]

    def forget() -> None:
        np.multiply(alpha, y, out=ay)
        errors[:] = [None] * n

    passes = 0
    iterations = 0
    while passes < max_passes and iterations < max_iterations:
        changed = 0
        for i in range(n):
            iterations += 1
            e_i = error(i)
            if not ((ys[i] * e_i < -tol and alpha[i] < c)
                    or (ys[i] * e_i > tol and alpha[i] > 0)):
                continue
            # Second-choice heuristic: max |E_i - E_j| over a sample,
            # the first of equal gaps winning (as ``max`` picks).
            j = e_j = gap = None
            for k in _sample_range(rng, n, min(n, 16)):
                if k == i:
                    continue
                e_k = errors[k]
                if e_k is None:
                    e_k = error(k)
                d = abs(e_i - e_k)
                if j is None or d > gap:
                    j, e_j, gap = k, e_k, d
            if j is None:
                continue

            alpha_i_old, alpha_j_old = alpha[i], alpha[j]
            if ys[i] != ys[j]:
                low = max(0.0, alpha[j] - alpha[i])
                high = min(c, c + alpha[j] - alpha[i])
            else:
                low = max(0.0, alpha[i] + alpha[j] - c)
                high = min(c, alpha[i] + alpha[j])
            if low >= high:
                continue
            eta = 2.0 * g[i][j] - g[i][i] - g[j][j]
            if eta >= 0:
                continue
            alpha[j] -= ys[j] * (e_i - e_j) / eta
            alpha[j] = min(high, max(low, alpha[j]))
            if abs(alpha[j] - alpha_j_old) < 1e-7:
                if alpha[j] != alpha_j_old:   # alpha[j] stays clipped
                    forget()
                continue
            alpha[i] += ys[i] * ys[j] * (alpha_j_old - alpha[j])

            b1 = (bias - e_i
                  - ys[i] * (alpha[i] - alpha_i_old) * g[i][i]
                  - ys[j] * (alpha[j] - alpha_j_old) * g[i][j])
            b2 = (bias - e_j
                  - ys[i] * (alpha[i] - alpha_i_old) * g[i][j]
                  - ys[j] * (alpha[j] - alpha_j_old) * g[j][j])
            if 0 < alpha[i] < c:
                bias = b1
            elif 0 < alpha[j] < c:
                bias = b2
            else:
                bias = (b1 + b2) / 2.0
            forget()
            changed += 1
        passes = passes + 1 if changed == 0 else 0

    support = np.array(alpha) > 1e-8
    return BinaryModel(
        support_vectors=x[support],
        coefficients=ay[support],
        bias=bias,
        kernel_name=kernel,
        gamma=gamma)
