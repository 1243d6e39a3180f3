import math
import re

import numpy as np
import pytest

from rantwin import mlp
from rantwin.anomaly import N_CLASSES, N_FEATURES
from rantwin.errors import ConfigurationError, DataFormatError, DomainError, TrainingError
from rantwin.mlp import (
    TrainConfig,
    forward,
    forward_rows,
    init_model,
    load_model,
    loss_and_grads,
    model_digest,
    predict_batch,
    save_model,
    serialize_model,
    train,
)
from rantwin.ran_sim import AnomalyClass

from oracles import (
    finite_difference_grads,
    max_relative_error,
    reference_train,
)


def zero_model(hidden=()):
    model = init_model(list(hidden), seed=0)
    for w in model.weights:
        w.fill(0.0)
    for b in model.biases:
        b.fill(0.0)
    return model


def n_parameters(model):
    return sum(w.size + b.size for w, b in zip(model.weights, model.biases))


def predicted_class(model, x):
    """The xApp's decision rule: argmax of the batched probabilities."""
    return int(np.argmax(forward_rows(model, x[None, :]), axis=1)[0])


def random_batch(rng, n, dim=N_FEATURES):
    x = rng.normal(0.0, 1.0, size=(n, dim))
    y = rng.integers(0, N_CLASSES, size=n)
    return x, y


class TestInit:
    def test_dims_and_parameter_count(self):
        model = init_model([16, 16], seed=0)
        assert model.layer_dims == [N_FEATURES, 16, 16, N_CLASSES]
        assert n_parameters(model) == (N_FEATURES + 1) * 16 + 17 * 16 + 17 * N_CLASSES

    def test_no_hidden_layers(self):
        model = init_model([], seed=0)
        assert model.layer_dims == [N_FEATURES, N_CLASSES]
        assert n_parameters(model) == (N_FEATURES + 1) * N_CLASSES

    def test_same_seed_identical(self):
        a, b = init_model([5], seed=11), init_model([5], seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_zero_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            init_model([16, 0], seed=0)

    def test_he_scaling(self):
        model = init_model([512], seed=3)
        assert model.weights[0].std() == pytest.approx(math.sqrt(2.0 / N_FEATURES), rel=0.1)


class TestForward:
    def test_zero_model_uniform(self):
        _, probs = forward(zero_model([16]), np.zeros(N_FEATURES))
        assert np.allclose(probs, 1.0 / N_CLASSES, atol=1e-15)

    def test_extreme_logits_stable(self):
        model = zero_model()
        model.biases[-1][:] = [1000.0, 0.0, 0.0, 0.0]
        logits, probs = forward(model, np.zeros(N_FEATURES))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)
        assert logits[0] == 1000.0

    def test_probs_normalized(self):
        rng = np.random.default_rng(1)
        model = init_model([16, 16], seed=2)
        for _ in range(100):
            _, probs = forward(model, rng.normal(0, 3, size=N_FEATURES))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert (probs > 0).all()

    def test_extreme_bias_magnitudes_normalized(self):
        model = zero_model()
        for biases in ([1e4, -1e4, 0.0, 0.0], [-1e4, -1e4, 1e4, 1e4]):
            model.biases[-1][:] = biases
            _, probs = forward(model, np.zeros(N_FEATURES))
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_bad_input_rejected(self):
        model = zero_model()
        with pytest.raises(DomainError):
            forward(model, np.zeros(N_FEATURES - 1))
        with pytest.raises(DomainError):
            forward(model, np.array([np.nan] + [0.0] * (N_FEATURES - 1)))


class TestForwardRows:
    def _models(self):
        models = []
        for seed, hidden in ((1, [16, 16]), (2, [32]), (3, []), (4, [24, 12, 6])):
            model = init_model(hidden, seed=seed)
            rng = np.random.default_rng(seed)
            for b in model.biases:
                b[:] = rng.normal(0.0, 0.5, size=b.shape)
            models.append(model)
        return models

    # A row's probabilities come from one gemm per layer over the whole
    # batch, so their last bits depend on the batch's shape. A reordered
    # sum of d terms moves by at most about d * eps * sum|terms|, and a
    # softmax probability moves by the relative amount its logit moves
    # absolutely. With d <= 32 and logits of at most 23 in magnitude here,
    # 1e-12 is about 100 times the measured worst case over these models
    # and sizes, 9.9e-15.
    ROW_RTOL = 1e-12

    def _cases(self):
        rng = np.random.default_rng(5)
        for model in self._models():
            for n in (1, 50, 1000):
                yield model, rng.normal(0.0, 3.0, size=(n, N_FEATURES))

    def test_entry_points_share_the_pass(self):
        for model, x in self._cases():
            probs = forward_rows(model, x)
            assert probs.shape == (len(x), N_CLASSES)
            assert np.array_equal(predict_batch(model, x), np.argmax(probs, axis=1))
            one = forward_rows(model, x[:1])[0]
            logits, probs_one = forward(model, x[0])
            assert np.array_equal(probs_one, one)
            assert logits.shape == (N_CLASSES,)

    def test_rows_sum_to_one(self):
        for model, x in self._cases():
            assert np.abs(forward_rows(model, x).sum(axis=1) - 1.0).max() <= 1e-12

    def test_rows_close_to_per_row_evaluation(self):
        for model, x in self._cases():
            probs = forward_rows(model, x)
            per_row = np.stack([forward(model, r)[1] for r in x])
            scale = np.maximum(np.abs(probs), np.abs(per_row))
            assert (np.abs(probs - per_row) <= self.ROW_RTOL * scale).all()

    def test_empty_batch(self):
        assert forward_rows(zero_model([16]), np.zeros((0, N_FEATURES))).shape == (0, N_CLASSES)

    def test_bad_input_rejected(self):
        model = zero_model()
        for bad in (np.zeros((3, N_FEATURES - 1)), np.zeros(N_FEATURES),
                    np.zeros((2, N_FEATURES, 1))):
            with pytest.raises(DomainError):
                forward_rows(model, bad)
        for value in (np.nan, np.inf, -np.inf):
            x = np.zeros((4, N_FEATURES))
            x[2, 5] = value
            with pytest.raises(DomainError):
                forward_rows(model, x)


class TestLossAndGrads:
    def test_uniform_model_loss_is_ln4(self):
        rng = np.random.default_rng(3)
        x, y = random_batch(rng, 10)
        loss, _, _ = loss_and_grads(zero_model([16, 16]), x, y)
        assert loss == pytest.approx(math.log(N_CLASSES), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # the mandated independent oracle: central differences, eps = 1e-5
        rng = np.random.default_rng(4)
        model = init_model([5], seed=5)
        x, y = random_batch(rng, 6)
        _, grad_w, grad_b = loss_and_grads(model, x, y)
        fd_w, fd_b = finite_difference_grads(model, x, y, eps=1e-5)
        assert max_relative_error(grad_w, fd_w) < 1e-4
        assert max_relative_error(grad_b, fd_b) < 1e-4

    def test_duplicated_batch_invariance(self):
        rng = np.random.default_rng(5)
        model = init_model([6], seed=6)
        x, y = random_batch(rng, 4)
        loss1, g1, _ = loss_and_grads(model, x, y)
        loss2, g2, _ = loss_and_grads(model, np.concatenate([x, x]), np.concatenate([y, y]))
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        model = init_model([6], seed=7)
        x, y = random_batch(rng, 8)
        perm = rng.permutation(8)
        loss1, _, g1 = loss_and_grads(model, x, y)
        loss2, _, g2 = loss_and_grads(model, x[perm], y[perm])
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_writes_into_given_buffers(self):
        rng = np.random.default_rng(7)
        model = init_model([6, 5], seed=8)
        x, y = random_batch(rng, 5)
        loss, fresh_w, fresh_b = loss_and_grads(model, x, y)
        grad_w = [np.full(w.shape, np.nan) for w in model.weights]
        grad_b = [np.full(b.shape, np.nan) for b in model.biases]
        again, out_w, out_b = loss_and_grads(model, x, y, grad_w, grad_b, np.arange(32))
        assert again == loss
        assert all(a is b for a, b in zip(out_w + out_b, grad_w + grad_b))
        for a, b in zip(grad_w + grad_b, fresh_w + fresh_b):
            assert np.array_equal(a, b)


class TestPredict:
    def test_argmax(self):
        model = zero_model()
        model.biases[-1][:] = np.log([0.1, 0.7, 0.1, 0.1])
        assert predicted_class(model, np.zeros(N_FEATURES)) == AnomalyClass.RSRP_ERROR

    def test_tie_breaks_to_lowest_code(self):
        model = zero_model()
        model.biases[-1][:] = [5.0, 0.0, 5.0, 0.0]
        assert predicted_class(model, np.zeros(N_FEATURES)) == AnomalyClass.NORMAL

    def test_consistent_with_forward(self):
        rng = np.random.default_rng(8)
        model = init_model([16, 16], seed=9)
        for _ in range(1000):
            x = rng.normal(0, 2, size=N_FEATURES)
            _, probs = forward(model, x)
            assert predicted_class(model, x) == int(np.argmax(probs))


class TestTrain:
    def _tiny_sets(self, rng, n=64):
        x, y = random_batch(rng, n)
        # make the task learnable: class == argmax of the first N_CLASSES inputs
        y = np.argmax(x[:, :N_CLASSES], axis=1)
        pairs = list(zip(x, y))
        return pairs[: n // 2], pairs[n // 2:]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_config_rejects_non_finite_or_non_positive_rate(self, value):
        with pytest.raises(ConfigurationError, match="learning_rate must be (finite|> 0)"):
            TrainConfig(learning_rate=value)

    def test_vanishing_learning_rate_freezes_parameters(self):
        rng = np.random.default_rng(10)
        train_set, test_set = self._tiny_sets(rng)
        model = init_model([8], seed=10)
        before = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
        trained, _ = train(
            model, train_set, test_set,
            TrainConfig(epochs=1, learning_rate=1e-12, seed=1),
        )
        after = trained.weights + trained.biases
        worst = max(float(np.abs(a - b).max()) for a, b in zip(after, before))
        assert worst < 1e-6

    def test_deterministic_hash(self):
        rng = np.random.default_rng(11)
        train_set, test_set = self._tiny_sets(rng)
        cfg = TrainConfig(epochs=20, seed=2)
        _, r1 = train(init_model([8], seed=3), train_set, test_set, cfg)
        _, r2 = train(init_model([8], seed=3), train_set, test_set, cfg)
        assert r1.final_model_hash == r2.final_model_hash
        assert r1.train_loss == r2.train_loss
        assert r1.test_accuracy == r2.test_accuracy

    def test_loss_decreases_and_report_filled(self):
        rng = np.random.default_rng(12)
        train_set, test_set = self._tiny_sets(rng, n=128)
        cfg = TrainConfig(epochs=30, seed=4)
        _, report = train(init_model([16], seed=5), train_set, test_set, cfg)
        assert len(report.train_loss) == 30
        assert len(report.test_accuracy) == 30
        assert report.final_loss < report.initial_loss
        assert all(0.0 <= a <= 1.0 for a in report.test_accuracy)

    def test_divergence_names_epoch(self):
        rng = np.random.default_rng(13)
        train_set, test_set = self._tiny_sets(rng)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            TrainingError, match="epoch"
        ):
            train(
                init_model([8], seed=6), train_set, test_set,
                TrainConfig(epochs=50, learning_rate=1e200, seed=7),
            )

    def test_failure_to_improve_is_an_error(self):
        rng = np.random.default_rng(14)
        train_set, test_set = self._tiny_sets(rng)
        with pytest.raises(TrainingError, match="reduce"):
            train(
                init_model([8], seed=6), train_set, test_set,
                TrainConfig(epochs=5, learning_rate=1e18, seed=7),
            )

    def test_bad_label_rejected(self):
        pairs = [(np.zeros(N_FEATURES), 0), (np.ones(N_FEATURES), 1)]
        for bad in (N_CLASSES, -1):
            message = f"label code {bad} outside 0..{N_CLASSES - 1}"
            with pytest.raises(DomainError, match=message):
                train(zero_model(), [*pairs, (np.zeros(N_FEATURES), bad)], pairs,
                      TrainConfig(epochs=1))
            with pytest.raises(DomainError, match=message):
                train(zero_model(), pairs, [(np.zeros(N_FEATURES), bad)], TrainConfig(epochs=1))

    def test_empty_side_rejected(self):
        rng = np.random.default_rng(15)
        train_set, test_set = self._tiny_sets(rng)
        with pytest.raises(DomainError, match="train set must be non-empty"):
            train(init_model([8], seed=6), [], test_set, TrainConfig(epochs=1))
        with pytest.raises(DomainError, match="test set must be non-empty"):
            train(init_model([8], seed=6), train_set, [], TrainConfig(epochs=1))


class TestTrainMatchesReference:
    """`train` against the per-layer Adam loop of `oracles.reference_train`,
    compared with exact equality."""

    N_TRAIN = 45  # batch size 7 leaves a ragged last batch of 3

    def _sets(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, size=(self.N_TRAIN + 20, N_FEATURES))
        y = np.argmax(x[:, :N_CLASSES], axis=1)
        pairs = list(zip(x, y))
        return pairs[: self.N_TRAIN], pairs[self.N_TRAIN:]

    def _assert_same(self, got, want):
        (model, report), (ref_model, ref_report) = got, want
        for a, b in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
            assert a.shape == b.shape
            assert np.array_equal(a, b)
        assert report.train_loss == ref_report.train_loss
        assert report.test_accuracy == ref_report.test_accuracy
        assert report.initial_loss == ref_report.initial_loss
        assert report.final_loss == ref_report.final_loss
        assert report.final_model_hash == ref_report.final_model_hash

    @pytest.mark.parametrize("hidden", [[], [8], [16, 16], [4, 4, 4]])
    @pytest.mark.parametrize("batch_size", [1, 7, 32, N_TRAIN + 5])
    def test_bit_identical_to_reference(self, hidden, batch_size):
        train_set, test_set = self._sets(len(hidden) + batch_size)
        cfg = TrainConfig(epochs=4, batch_size=batch_size, learning_rate=1e-2, seed=batch_size)
        self._assert_same(
            train(init_model(hidden, seed=3), train_set, test_set, cfg),
            reference_train(init_model(hidden, seed=3), train_set, test_set, cfg),
        )

    def test_second_call_on_the_returned_model(self):
        train_set, test_set = self._sets(1)
        first = TrainConfig(epochs=3, batch_size=7, learning_rate=1e-2, seed=1)
        second = TrainConfig(epochs=3, batch_size=5, learning_rate=1e-2, seed=2)
        model, _ = train(init_model([8], seed=4), train_set, test_set, first)
        ref_model, _ = reference_train(init_model([8], seed=4), train_set, test_set, first)
        self._assert_same(
            train(model, train_set, test_set, second),
            reference_train(ref_model, train_set, test_set, second),
        )

    def test_caller_arrays_hold_the_trained_values(self):
        train_set, test_set = self._sets(2)
        cfg = TrainConfig(epochs=3, batch_size=7, learning_rate=1e-2, seed=3)
        model = init_model([8, 8], seed=5)
        held_w, held_b = model.weights[0], model.biases[-1]
        before = held_w.copy()
        trained, _ = train(model, train_set, test_set, cfg)
        ref_model, _ = reference_train(init_model([8, 8], seed=5), train_set, test_set, cfg)
        assert trained is model
        assert trained.weights[0] is held_w and trained.biases[-1] is held_b
        assert not np.array_equal(held_w, before)
        assert np.array_equal(held_w, ref_model.weights[0])
        assert np.array_equal(held_b, ref_model.biases[-1])

    def test_returned_arrays_share_no_memory(self):
        train_set, test_set = self._sets(3)
        trained, _ = train(init_model([8, 8], seed=6), train_set, test_set,
                           TrainConfig(epochs=2, batch_size=7, seed=4))
        arrays = trained.weights + trained.biases
        for i, a in enumerate(arrays):
            # views of one flat buffer would share no memory but own none
            assert a.flags.owndata
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        model = init_model([16, 16], seed=14)
        path = "/tmp/rantwin_model_test.txt"
        save_model(model, path)
        again = load_model(path)
        assert again.layer_dims == model.layer_dims
        for a, b in zip(again.weights, model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(again.biases, model.biases):
            assert np.array_equal(a, b)
        assert model_digest(again) == model_digest(model)

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model([16], seed=15)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(DataFormatError, match="truncated|incomplete"):
            load_model(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        # dims claim 16 hidden units but layer 0 only carries 10 rows
        model = init_model([10], seed=16)
        path = tmp_path / "model.txt"
        save_model(model, path)
        dims = f"{N_FEATURES} 10 {N_CLASSES}"
        text = path.read_text().replace(dims, f"{N_FEATURES} 16 {N_CLASSES}", 1)
        path.write_text(text)
        with pytest.raises(DataFormatError, match="layer 0"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(f"NOT-A-MODEL v9\n{N_FEATURES} {N_CLASSES}\n")
        with pytest.raises(DataFormatError, match=f"^model file {re.escape(str(path))}: bad magic"):
            load_model(path)

    def test_wrong_input_width_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        lines = ["7 4"] + [" ".join(["0.0"] * 7) for _ in range(4)] + ["0.0 0.0 0.0 0.0"]
        path.write_text(mlp.MODEL_MAGIC + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="dims"):
            load_model(path)

    def test_digest_is_sha256_of_serialization(self):
        import hashlib

        model = init_model([], seed=17)
        expected = hashlib.sha256(serialize_model(model).encode()).hexdigest()
        assert model_digest(model) == expected
