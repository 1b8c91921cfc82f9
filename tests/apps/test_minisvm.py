"""minisvm tests: kernels, SMO training, multi-class voting."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.minisvm import (SvmError, linear_kernel, make_kernel,
                                rbf_kernel, svm_predict, svm_train,
                                train_binary)
from repro.apps.minisvm.smo import BinaryModel, _sample_range


def reference_train_binary(x: np.ndarray, y: np.ndarray, *,
                           c: float = 1.0, kernel: str = "rbf",
                           gamma: float = 0.1, tol: float = 1e-3,
                           max_passes: int = 5,
                           max_iterations: int = 10_000,
                           seed: int = 0) -> BinaryModel:
    """The SMO loop the memoised one replaced, kept as the oracle: every
    ``error(i)`` rebuilds ``alpha * y`` and runs its own dot, and every
    scalar is read from the numpy arrays."""
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

    alpha = np.zeros(n)
    bias = 0.0

    def error(i: int) -> float:
        return float((alpha * y) @ gram[:, i] + bias - y[i])

    passes = 0
    iterations = 0
    while passes < max_passes and iterations < max_iterations:
        changed = 0
        for i in range(n):
            iterations += 1
            e_i = error(i)
            if not ((y[i] * e_i < -tol and alpha[i] < c)
                    or (y[i] * e_i > tol and alpha[i] > 0)):
                continue
            # Second-choice heuristic: max |E_i - E_j| over a sample.
            candidates = rng.sample(range(n), min(n, 16))
            j = max((k for k in candidates if k != i),
                    key=lambda k: abs(e_i - error(k)),
                    default=None)
            if j is None:
                continue
            e_j = error(j)

            alpha_i_old, alpha_j_old = alpha[i], alpha[j]
            if y[i] != y[j]:
                low = max(0.0, alpha[j] - alpha[i])
                high = min(c, c + alpha[j] - alpha[i])
            else:
                low = max(0.0, alpha[i] + alpha[j] - c)
                high = min(c, alpha[i] + alpha[j])
            if low >= high:
                continue
            eta = 2.0 * gram[i, j] - gram[i, i] - gram[j, j]
            if eta >= 0:
                continue
            alpha[j] -= y[j] * (e_i - e_j) / eta
            alpha[j] = min(high, max(low, alpha[j]))
            if abs(alpha[j] - alpha_j_old) < 1e-7:
                continue
            alpha[i] += y[i] * y[j] * (alpha_j_old - alpha[j])

            b1 = (bias - e_i
                  - y[i] * (alpha[i] - alpha_i_old) * gram[i, i]
                  - y[j] * (alpha[j] - alpha_j_old) * gram[i, j])
            b2 = (bias - e_j
                  - y[i] * (alpha[i] - alpha_i_old) * gram[i, j]
                  - y[j] * (alpha[j] - alpha_j_old) * gram[j, j])
            if 0 < alpha[i] < c:
                bias = b1
            elif 0 < alpha[j] < c:
                bias = b2
            else:
                bias = (b1 + b2) / 2.0
            changed += 1
        passes = passes + 1 if changed == 0 else 0

    support = alpha > 1e-8
    return BinaryModel(
        support_vectors=x[support],
        coefficients=(alpha * y)[support],
        bias=bias,
        kernel_name=kernel,
        gamma=gamma)


class TestKernels:
    def test_linear_is_dot_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0, 0.0]])
        assert np.allclose(linear_kernel(a, b), [[1.0], [3.0]])

    def test_rbf_of_identical_points_is_one(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        gram = rbf_kernel(x, x, gamma=0.7)
        assert np.allclose(np.diag(gram), 1.0)

    def test_rbf_decays_with_distance(self):
        near = rbf_kernel(np.array([[0.0]]), np.array([[0.1]]), 1.0)
        far = rbf_kernel(np.array([[0.0]]), np.array([[3.0]]), 1.0)
        assert near > far > 0

    def test_rbf_symmetric(self):
        x = np.random.default_rng(1).normal(size=(6, 2))
        gram = rbf_kernel(x, x, 0.5)
        assert np.allclose(gram, gram.T)

    def test_make_kernel_unknown(self):
        with pytest.raises(SvmError):
            make_kernel("polynomial-of-doom")


def _separable(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x_pos = rng.normal(loc=[2.0, 2.0], size=(n // 2, 2))
    x_neg = rng.normal(loc=[-2.0, -2.0], size=(n // 2, 2))
    x = np.vstack([x_pos, x_neg])
    y = np.array([1.0] * (n // 2) + [-1.0] * (n // 2))
    order = rng.permutation(n)
    return x[order], y[order]


class TestBinarySmo:
    def test_separable_linear(self):
        x, y = _separable()
        model = train_binary(x, y, kernel="linear")
        assert np.all(model.predict(x) == y)

    def test_separable_rbf(self):
        x, y = _separable()
        model = train_binary(x, y, kernel="rbf", gamma=0.5)
        assert np.mean(model.predict(x) == y) >= 0.95

    def test_xor_needs_rbf(self):
        """XOR is the classic non-linearly-separable case."""
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        x = np.repeat(x, 10, axis=0) \
            + np.random.default_rng(3).normal(0, 0.05, (40, 2))
        y = np.array([-1, 1, 1, -1] * 10, dtype=float)
        y = y[np.argsort(np.tile(np.arange(4), 10), kind="stable")]
        rbf = train_binary(x, y, kernel="rbf", gamma=4.0, c=10.0)
        assert np.mean(rbf.predict(x) == y) >= 0.9

    def test_deterministic_given_seed(self):
        x, y = _separable()
        a = train_binary(x, y, seed=7)
        b = train_binary(x, y, seed=7)
        assert np.allclose(a.coefficients, b.coefficients)
        assert a.bias == b.bias

    def test_support_vectors_subset(self):
        x, y = _separable()
        model = train_binary(x, y, kernel="linear")
        assert 0 < len(model.support_vectors) <= len(x)

    def test_bad_labels_rejected(self):
        x, _ = _separable()
        with pytest.raises(SvmError):
            train_binary(x, np.zeros(len(x)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SvmError):
            train_binary(np.zeros((4, 2)), np.ones(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_decision_consistent_with_predict(self, seed):
        x, y = _separable(seed=seed)
        model = train_binary(x, y, kernel="linear", seed=seed)
        decision = model.decision(x)
        assert np.all(np.where(decision >= 0, 1, -1) == model.predict(x))


def _bench_blobs(n, seed):
    """The svm bench's training shape: two blobs in 8 features, with the
    two private columns zeroed as the inner enclave does."""
    rng = np.random.default_rng(seed)
    pos = max(n // 2, 1)
    x = np.vstack([rng.normal(-1.0, 0.3, (pos, 8)),
                   rng.normal(1.0, 0.3, (n - pos, 8))])
    x[:, :2] = 0.0
    y = np.array([1.0] * pos + [-1.0] * (n - pos))
    return x, y


def _model_bytes(model):
    return (model.support_vectors.shape, model.support_vectors.tobytes(),
            model.coefficients.tobytes(), np.float64(model.bias).tobytes())


class TestSmoMatchesReference:
    """Byte-for-byte differential test against the reference loop.  The
    bench digests and the results document do not pin SMO numerics (a
    looser ``tol`` moves every bias yet passes both), so this does."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [1, 2, 16, 40, 62])
    def test_bench_shaped_sweep(self, n, seed):
        x, y = _bench_blobs(n, seed)
        for kernel in ("linear", "rbf"):
            for c in (0.1, 1.0, 10.0):
                kwargs = dict(c=c, kernel=kernel, gamma=1 / 8, seed=seed)
                assert _model_bytes(train_binary(x, y, **kwargs)) \
                    == _model_bytes(reference_train_binary(x, y, **kwargs))

    @pytest.mark.parametrize("seed", range(3))
    def test_set_branch_sample(self, seed):
        """n > 85: the 16-candidate sample takes ``sample``'s set branch,
        which the sweep above never reaches."""
        x, y = _bench_blobs(100, seed)
        for kernel in ("linear", "rbf"):
            kwargs = dict(c=1.0, kernel=kernel, gamma=1 / 8, seed=seed)
            assert _model_bytes(train_binary(x, y, **kwargs)) \
                == _model_bytes(reference_train_binary(x, y, **kwargs))

    def test_training_draws_no_random_sample(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("train_binary called Random.sample")

        monkeypatch.setattr(random.Random, "sample", refuse)
        train_binary(*_bench_blobs(40, 0), seed=0)

    def test_max_iterations_cut(self):
        x, y = _separable(seed=4)
        y[::5] *= -1.0     # label noise keeps SMO busy past the cap
        kwargs = dict(c=10.0, kernel="rbf", gamma=2.0, seed=4)
        capped = train_binary(x, y, max_iterations=50, **kwargs)
        assert _model_bytes(capped) == _model_bytes(
            reference_train_binary(x, y, max_iterations=50, **kwargs))
        assert _model_bytes(capped) \
            != _model_bytes(train_binary(x, y, **kwargs))


class TestSampleRange:
    """``_sample_range`` against ``Random.sample(range(n), k)`` on both
    of CPython's branches: a pool while n <= setsize (21, or 85 for
    6 <= k <= 21), set redraws above it.  A CPython change to ``sample``
    fails here, not as a drifted SMO model."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 21, 22, 84, 85, 86, 87,
                                   100, 1000])
    def test_same_list_and_generator_state(self, n):
        for k in sorted({0, 1, 5, 6, 16, n} & set(range(n + 1))):
            for seed in range(4):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert _sample_range(ours, n, k) \
                    == theirs.sample(range(n), k), (n, k, seed)
                assert ours.random() == theirs.random(), (n, k, seed)


class TestMultiClass:
    def _three_class(self, n=60, seed=5):
        rng = np.random.default_rng(seed)
        centers = np.array([[3, 0], [-3, 0], [0, 4]], dtype=float)
        x = np.vstack([rng.normal(c, 0.6, size=(n // 3, 2))
                       for c in centers])
        y = np.repeat([1, 2, 3], n // 3)
        return x, y

    def test_one_vs_one_machine_count(self):
        x, y = self._three_class()
        model = svm_train(x, y, kernel="linear")
        assert len(model.machines) == 3  # C(3,2)
        assert model.classes == (1, 2, 3)

    def test_three_class_accuracy(self):
        x, y = self._three_class()
        model = svm_train(x, y, kernel="rbf", gamma=0.5)
        assert model.accuracy(x, y) >= 0.95

    def test_svm_predict_free_function(self):
        x, y = self._three_class()
        model = svm_train(x, y, kernel="linear")
        assert np.all(svm_predict(model, x) == model.predict(x))

    def test_single_class_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(SvmError):
            svm_train(x, np.ones(10))

    def test_total_support_vectors(self):
        x, y = self._three_class()
        model = svm_train(x, y, kernel="linear")
        assert model.total_support_vectors \
            == sum(len(m.support_vectors)
                   for m in model.machines.values())
