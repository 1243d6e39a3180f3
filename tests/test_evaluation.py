import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rantwin import evaluation
from rantwin.anomaly import N_CLASSES
from rantwin.errors import ConfigurationError, DomainError
from rantwin.evaluation import (
    TsneConfig,
    conditional_gaussian_probs,
    confusion,
    joint_probabilities,
    silhouette,
    tsne,
    write_confusion_csv,
)

from oracles import reference_joint_probabilities, reference_squared_distances, reference_tsne


class TestAccuracy:
    def test_perfect(self):
        assert confusion([0, 1, 2, 3], [0, 1, 2, 3]).accuracy() == 1.0

    def test_disjoint(self):
        assert confusion([0, 0, 0], [1, 2, 3]).accuracy() == 0.0

    def test_nine_of_ten(self):
        preds = [0] * 9 + [1]
        labels = [0] * 10
        assert confusion(preds, labels).accuracy() == pytest.approx(0.9)

    def test_errors(self):
        with pytest.raises(DomainError, match="length mismatch"):
            confusion([0], [0, 1])
        with pytest.raises(DomainError, match="empty"):
            confusion([], [])

    @pytest.mark.parametrize("predictions, labels, code", [
        ([0, 1, -1], [0, 1, -1], -1),
        ([0, 1, N_CLASSES], [0, 1, 2], N_CLASSES),
        ([0, 1, 2], [0, N_CLASSES, 2], N_CLASSES),
        ([0, 1, 2], [-1, 1, 2], -1),
    ])
    def test_codes_outside_the_classes_rejected(self, predictions, labels, code):
        # a -1 would otherwise count as the last class, and N_CLASSES raise IndexError
        with pytest.raises(DomainError, match=f"class code {code} outside 0..{N_CLASSES - 1}"):
            confusion(predictions, labels)


class TestConfusion:
    def test_perfect_is_diagonal(self):
        cm = confusion([0, 1, 2, 3, 3], [0, 1, 2, 3, 3])
        assert np.array_equal(np.diag(np.diag(cm.counts)), cm.counts)

    def test_spec_example(self):
        cm = confusion([0, 1, 1], [0, 0, 1])
        expected = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        expected[0, 0] = 1
        expected[0, 1] = 1
        expected[1, 1] = 1
        assert np.array_equal(cm.counts, expected)

    def test_trace_over_total_equals_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            preds = rng.integers(0, N_CLASSES, size=n).tolist()
            labels = rng.integers(0, N_CLASSES, size=n).tolist()
            cm = confusion(preds, labels)
            matches = sum(p == t for p, t in zip(preds, labels))
            assert cm.accuracy() == matches / n
            assert cm.total() == n
            expected = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
            for p, t in zip(preds, labels):
                expected[t, p] += 1
            assert np.array_equal(cm.counts, expected)

    def test_row_sums_are_class_counts(self):
        labels = [0, 0, 1, 2, 3, 3, 3]
        preds = [0, 1, 1, 2, 3, 0, 3]
        cm = confusion(preds, labels)
        assert cm.counts.sum(axis=1).tolist() == [2, 1, 1, 3]

    def test_csv_layout(self, tmp_path):
        cm = confusion([0, 1], [0, 1])
        path = tmp_path / "confusion.csv"
        write_confusion_csv(cm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "true\\pred,Normal,RsrpError,RsrqError,SinrError"
        assert len(lines) == 5
        assert lines[1].startswith("Normal,")
        assert lines[2] == "RsrpError,0,1,0,0"


def blobs(rng, n_per, centers, sigma):
    points = []
    labels = []
    for i, c in enumerate(centers):
        points.append(rng.normal(0.0, sigma, size=(n_per, len(c))) + np.array(c))
        labels.extend([i] * n_per)
    return np.vstack(points), np.array(labels)


class TestTsne:
    def test_p_matrix_properties(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, size=(60, 4))
        p = joint_probabilities(x, 15.0)
        assert np.abs(p - p.T).max() < 1e-12
        assert (p >= 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(np.diag(p), 0.0)

    def test_conditional_perplexity_matches_config(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, size=(80, 4))
        d2 = (x[:, None, :] - x[None, :, :]) ** 2
        d2 = d2.sum(axis=2)
        target = 25.0
        p_cond = conditional_gaussian_probs(d2, target)
        for i in range(x.shape[0]):
            row = p_cond[i][p_cond[i] > 0]
            perp = math.exp(-(row * np.log(row)).sum())
            assert perp == pytest.approx(target, abs=1e-3 * target)

    def test_separated_blobs_embed_separably(self):
        # two tight 4-d blobs far apart must stay separated in 2-d;
        # perplexity near the blob size keeps intra-blob attraction dominant,
        # and the learning rate is scaled down for n = 50
        rng = np.random.default_rng(3)
        x, labels = blobs(rng, 25, [(0, 0, 0, 0), (10, 0, 0, 0)], sigma=0.1)
        config = TsneConfig(perplexity=15.0, iterations=500, learning_rate=50.0, seed=4)
        emb = tsne(x, config)
        assert silhouette(emb.points, labels) > 0.9

    def test_final_kl_below_initial(self):
        rng = np.random.default_rng(5)
        x, _ = blobs(rng, 20, [(0,) * 4, (6, 0, 0, 0), (0, 6, 0, 0)], sigma=0.5)
        emb = tsne(x, TsneConfig(perplexity=12.0, iterations=300, learning_rate=10.0, seed=6))
        assert emb.final_kl < emb.initial_kl
        assert emb.final_kl >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, size=(40, 4))
        cfg = TsneConfig(perplexity=8.0, iterations=120, seed=8)
        a = tsne(x, cfg)
        b = tsne(x, cfg)
        assert np.array_equal(a.points, b.points)
        assert a.final_kl == b.final_kl

    def test_infeasible_perplexity_rejected(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, size=(30, 4))
        with pytest.raises(ConfigurationError, match="perplexity"):
            tsne(x, TsneConfig(perplexity=10.0, iterations=10, seed=0))  # (30-1)/3 < 10

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            tsne(np.zeros((3, 4)), TsneConfig(perplexity=2.0, iterations=10, seed=0))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TsneConfig(perplexity=0.5)

    @pytest.mark.parametrize("field", ["perplexity", "learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            TsneConfig(**{field: value})

    def test_embedding_is_finite_2d(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, size=(25, 4))
        emb = tsne(x, TsneConfig(perplexity=5.0, iterations=60, seed=11))
        assert emb.points.shape == (25, 2)
        assert np.isfinite(emb.points).all()


class TestTsneMatchesReference:
    """The preallocated descent runs every IEEE operation of the reference,
    in the same order, so the two agree to the bit."""

    # 64 points are one row block of the descent, 129 end in a block of one row
    @pytest.mark.parametrize("n, perplexity",
                             [(8, 2.0), (40, 8.0), (64, 15.0), (129, 30.0), (150, 30.0)])
    @pytest.mark.parametrize("exaggeration_iters", [0, 25, 60, 80])
    def test_bit_identical(self, monkeypatch, n, perplexity, exaggeration_iters):
        monkeypatch.setattr(evaluation, "EXAGGERATION_ITERS", exaggeration_iters)
        rng = np.random.default_rng(n)
        x = rng.dirichlet(np.ones(4), size=n)  # like the classifier's probabilities
        config = TsneConfig(perplexity=perplexity, iterations=60, seed=n + 1)
        assert np.array_equal(joint_probabilities(x, perplexity),
                              reference_joint_probabilities(x, perplexity))
        ours = tsne(x, config)
        theirs = reference_tsne(x, config)
        assert np.array_equal(ours.points, theirs.points)
        assert ours.initial_kl == theirs.initial_kl
        assert ours.final_kl == theirs.final_kl

    # 150 rows are blocks of 64, 64 and 22 at the default; 7 rows end in a
    # block of 3, 1 row runs every row alone, and 150 rows run the whole matrix.
    @pytest.mark.parametrize("block_rows", [1, 7, 150])
    def test_independent_of_block_rows(self, monkeypatch, block_rows):
        rng = np.random.default_rng(20)
        x = rng.dirichlet(np.ones(4), size=150)
        labels = rng.integers(0, 4, size=150)
        monkeypatch.setattr(evaluation, "EXAGGERATION_ITERS", 30)
        config = TsneConfig(perplexity=30.0, iterations=60, seed=21)
        p, emb = joint_probabilities(x, 30.0), tsne(x, config)
        score = silhouette(emb.points, labels)
        monkeypatch.setattr(evaluation, "_BLOCK_ROWS", block_rows)
        assert np.array_equal(joint_probabilities(x, 30.0), p)
        other = tsne(x, config)
        assert np.array_equal(other.points, emb.points)
        assert other.initial_kl == emb.initial_kl
        assert other.final_kl == emb.final_kl
        assert silhouette(other.points, labels) == score

    def test_silhouette_distances_unchanged(self, monkeypatch):
        rng = np.random.default_rng(14)
        for n in (8, 40, 64, 129, 150):
            pts = rng.normal(0, 5, size=(n, 2))
            labels = rng.integers(0, 3, size=n)
            ours = silhouette(pts, labels)
            with monkeypatch.context() as patched:
                patched.setattr(evaluation, "_squared_distances", reference_squared_distances_into)
                theirs = silhouette(pts, labels)
            assert ours == theirs


def reference_squared_distances_into(a, b, out, scratch):
    out[...] = reference_squared_distances(a, b)
    return out


class TestTsneMemory:
    # numpy reports its data buffers to tracemalloc. The slack covers Python
    # objects and numpy's fixed-size iterator buffers (about 128 KiB for a
    # broadcast add), neither of which grows with n.
    N = 200
    SLACK_BYTES = 2**17

    @pytest.mark.parametrize("exaggeration_iters", [0, 10, 30])
    def test_peak_at_most_five_n_by_n_buffers(self, monkeypatch, exaggeration_iters):
        monkeypatch.setattr(evaluation, "EXAGGERATION_ITERS", exaggeration_iters)
        n = self.N
        x = np.random.default_rng(15).normal(0, 1, size=(n, 4))
        config = TsneConfig(perplexity=30.0, iterations=20, seed=16)
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tsne(x, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= 5 * n * n * 8 + self.SLACK_BYTES

    # At the CLI's 501 test points: P, one n x n buffer and row-block scratch.
    @pytest.mark.parametrize("exaggeration_iters", [0, 30])
    def test_peak_at_cli_size_under_three_and_a_half_n_by_n(self, monkeypatch, exaggeration_iters):
        monkeypatch.setattr(evaluation, "EXAGGERATION_ITERS", exaggeration_iters)
        n = 501
        x = np.random.default_rng(17).normal(0, 1, size=(n, 4))
        config = TsneConfig(perplexity=30.0, iterations=40, seed=18)
        assert traced_peak(tsne, x, config) <= 3.5 * n * n * 8 + self.SLACK_BYTES

    # Besides P, only row-block scratch.
    @pytest.mark.parametrize("exaggeration_iters", [0, 30])
    def test_peak_at_cli_size_under_one_and_a_half_n_by_n(self, monkeypatch, exaggeration_iters):
        monkeypatch.setattr(evaluation, "EXAGGERATION_ITERS", exaggeration_iters)
        n = 501
        x = np.random.default_rng(17).normal(0, 1, size=(n, 4))
        config = TsneConfig(perplexity=30.0, iterations=40, seed=18)
        assert traced_peak(tsne, x, config) <= 1.5 * n * n * 8 + self.SLACK_BYTES

    def test_silhouette_peak_under_one_and_a_half_n_by_n(self):
        n = 501
        rng = np.random.default_rng(19)
        points = rng.normal(0, 5, size=(n, 2))
        assert traced_peak(silhouette, points, rng.integers(0, 4, size=n)) <= 1.5 * n * n * 8


def traced_peak(call, *args) -> int:
    """Bytes traced by tracemalloc at the peak of call(*args), beyond those
    held when it started."""
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


class TestSilhouette:
    def test_hand_computed_four_points(self):
        # a = 1 for every point; b = mean(10, sqrt(101)) = 10.0249
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        labels = [0, 0, 1, 1]
        a = 1.0
        b = (10.0 + math.sqrt(101.0)) / 2.0
        expected = (b - a) / max(a, b)
        assert expected == pytest.approx(0.900, abs=5e-4)
        assert silhouette(points, labels) == pytest.approx(expected, rel=1e-12)

    def test_identical_coordinates_score_zero(self):
        points = np.zeros((6, 2))
        assert silhouette(points, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_singletons_contribute_zero(self):
        points = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 1.0]])
        score = silhouette(points, [0, 1, 1])
        by_hand = (0.0 + 2 * ((math.hypot(100, 0) + math.hypot(100, 1)) / 2 - 1.0)
                   / max(1.0, (math.hypot(100, 0) + math.hypot(100, 1)) / 2)) / 3
        assert score == pytest.approx(by_hand, rel=1e-9)

    def test_single_label_rejected(self):
        with pytest.raises(DomainError):
            silhouette(np.zeros((4, 2)), [1, 1, 1, 1])

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(8, 40))
            pts = rng.normal(0, 5, size=(n, 2))
            labels = rng.integers(0, 3, size=n)
            if np.unique(labels).size < 2:
                continue
            s = silhouette(pts, labels)
            assert -1.0 <= s <= 1.0

    def test_leaves_numpy_ma_unimported(self):
        # numpy.ma holds about 1 MB, in the stage that sets the pipeline's
        # peak memory; only a fresh process shows whether a call imports it
        src = str(Path(evaluation.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from rantwin.evaluation import silhouette\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported before the call'\n"
            "silhouette(np.arange(10.0).reshape(5, 2), [7, 7, -2, -2, 7])\n"
            "assert 'numpy.ma' not in sys.modules, 'silhouette imported numpy.ma'\n"
        )
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_matches_sklearn_reference(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(13)
        pts, labels = blobs(rng, 12, [(0, 0), (4, 0), (0, 4)], sigma=1.0)
        ours = silhouette(pts, labels)
        theirs = float(sklearn_metrics.silhouette_score(pts, labels))
        assert ours == pytest.approx(theirs, rel=1e-9)
