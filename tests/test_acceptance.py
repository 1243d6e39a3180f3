"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line. Quantitative targets reproduce the original experiment on the
synthetic twin; the rest are property checks.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rantwin import anomaly, evaluation, mlp, ran_sim, ric, twin_engine
from rantwin import radio_model as rm
from rantwin.cli import default_demo_schedule, main
from rantwin.errors import ProtocolError
from rantwin.ran_sim import AnomalyClass

from oracles import (
    allocation_objective,
    brute_force_best_objective,
    finite_difference_grads,
    max_relative_error,
    mk_batch,
    mk_cell,
    mk_report,
    snapshot,
    unit_stats,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Default pipeline run through the CLI, with per-stage wall times."""
    root = tmp_path_factory.mktemp("acceptance")
    paths = {
        "dataset": root / "dataset.csv",
        "model": root / "model.txt",
        "stats": root / "stats.csv",
        "report": root / "report.csv",
        "eval_dir": root / "eval",
        "embedding": root / "embedding.csv",
        "loop_dir": root / "loop",
    }
    timings = {}

    t0 = time.perf_counter()
    assert main(["gen-dataset", "--out", str(paths["dataset"])]) == 0
    timings["gen"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assert main([
        "train", "--dataset", str(paths["dataset"]),
        "--model-out", str(paths["model"]), "--stats-out", str(paths["stats"]),
        "--report-out", str(paths["report"]),
    ]) == 0
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assert main([
        "eval", "--model", str(paths["model"]), "--stats", str(paths["stats"]),
        "--dataset", str(paths["dataset"]), "--out-dir", str(paths["eval_dir"]),
    ]) == 0
    timings["eval"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assert main([
        "tsne", "--model", str(paths["model"]), "--stats", str(paths["stats"]),
        "--dataset", str(paths["dataset"]), "--out", str(paths["embedding"]),
    ]) == 0
    timings["tsne"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assert main([
        "closed-loop", "--model", str(paths["model"]), "--stats", str(paths["stats"]),
        "--out-dir", str(paths["loop_dir"]),
    ]) == 0
    timings["loop"] = time.perf_counter() - t0

    return {"root": root, "paths": paths, "timings": timings}


def read_metrics(eval_dir):
    rows = (eval_dir / "metrics.csv").read_text().splitlines()[1:]
    return {name: float(value) for name, value in (r.split(",") for r in rows)}


def test_criterion_1_dataset_scale(artifacts):
    with criterion(1, "2505 samples generated, 2004/501 stratified split, < 60 s"):
        samples = anomaly.read_dataset_csv(artifacts["paths"]["dataset"])
        assert len(samples) == 2505
        train_set, test_set = anomaly.split_dataset(samples, 0.8, seed=13)
        assert len(train_set) == 2004
        assert len(test_set) == 501
        per_class = {c: sum(1 for s in samples if s.label == c) for c in AnomalyClass}
        assert per_class[AnomalyClass.NORMAL] == 627
        assert all(per_class[c] == 626 for c in list(AnomalyClass)[1:])
        assert artifacts["timings"]["gen"] < 60.0


def test_criterion_2_accuracy(artifacts):
    with criterion(2, "test accuracy >= 0.85 and every per-class recall >= 0.75, < 3 min"):
        metrics = read_metrics(artifacts["paths"]["eval_dir"])
        assert metrics["accuracy"] >= 0.85
        for name in ("Normal", "RsrpError", "RsrqError", "SinrError"):
            assert metrics[f"recall_{name}"] >= 0.75
        pipeline_s = (
            artifacts["timings"]["gen"]
            + artifacts["timings"]["train"]
            + artifacts["timings"]["eval"]
        )
        assert pipeline_s < 180.0


def test_criterion_3_cluster_separation(artifacts):
    with criterion(3, "t-SNE of test-set probabilities: silhouette >= 0.3, < 2 min"):
        lines = artifacts["paths"]["embedding"].read_text().splitlines()
        assert lines[0] == "ue_id,tick,label,x,y"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 501
        points = np.array([[float(r[3]), float(r[4])] for r in rows])
        labels = [int(r[2]) for r in rows]
        assert evaluation.silhouette(points, labels) >= 0.3
        assert artifacts["timings"]["tsne"] < 120.0


def test_criterion_4_near_rt_budget():
    with criterion(4, "twin tick median < 10 ms over 1000 ticks (3 cells / 50 UEs)"):
        config = ran_sim.SimConfig()
        state = ran_sim.init_sim(config)
        elapsed = []
        for _ in range(1000):
            state, reports, _ = ran_sim.step(state)
            t0 = time.perf_counter()
            plan, _ = twin_engine.twin_tick(reports, state.cells, config.link)
            elapsed.append((time.perf_counter() - t0) * 1e3)
            ran_sim.apply_allocation(state, plan, config.link)
        median_ms = statistics.median(elapsed)
        print(f"  twin tick median {median_ms:.3f} ms over {len(elapsed)} ticks")
        assert median_ms < 10.0


def test_criterion_10_full_tick_budget(artifacts):
    with criterion(10, "full controller tick median < tick_ms over 1000 ticks "
                       "(3 cells / 50 UEs, demo faults)"):
        config = ran_sim.SimConfig()
        model = mlp.load_model(artifacts["paths"]["model"])
        stats = anomaly.read_stats_csv(artifacts["paths"]["stats"])
        faults = {f.onset_tick: f for f in default_demo_schedule(config)}
        loop = ric.ControlLoop(config, model, stats)
        elapsed = []
        for _ in range(1000):
            fault = faults.get(loop.state.tick + 1)
            if fault is not None:
                ran_sim.set_fault(loop.state, fault.ue_id, fault.spec)
            t0 = time.perf_counter()
            loop.tick()
            elapsed.append((time.perf_counter() - t0) * 1e3)
        median_ms = statistics.median(elapsed)
        print(f"  full tick median {median_ms:.3f} ms over {len(elapsed)} ticks")
        assert median_ms < config.tick_ms


def test_criterion_11_full_tick_budget_at_scale(artifacts):
    with criterion(11, "full controller tick median < tick_ms over 200 ticks "
                       "(19 cells / 1000 UEs, no faults)"):
        config = ran_sim.SimConfig(n_cells=19, n_ues=1000)
        model = mlp.load_model(artifacts["paths"]["model"])
        stats = anomaly.read_stats_csv(artifacts["paths"]["stats"])
        loop = ric.ControlLoop(config, model, stats)
        elapsed = []
        for _ in range(200):
            t0 = time.perf_counter()
            loop.tick()
            elapsed.append((time.perf_counter() - t0) * 1e3)
        median_ms = statistics.median(elapsed)
        print(f"  full tick median {median_ms:.3f} ms over {len(elapsed)} ticks")
        assert median_ms < config.tick_ms


def test_criterion_5_closed_loop(artifacts):
    with criterion(5, ">= 2/3 faults detected correctly within 20 ticks; "
                      "detected faults restored within 100 ticks; < 60 s"):
        summary = (artifacts["paths"]["loop_dir"] / "summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in summary[1:]]
        assert len(rows) == 3
        detected = 0
        for row in rows:
            onset = int(row[3])
            if row[4]:
                detect, action = int(row[4]), int(row[5])
                if detect - onset <= 20:
                    detected += 1
                assert row[6], f"fault {row[0]} detected but never restored"
                assert int(row[6]) - action <= 100
        assert detected >= 2
        assert artifacts["timings"]["loop"] < 60.0


def test_criterion_6_gradient_oracle():
    with criterion(6, "backprop matches central differences (eps 1e-5) within "
                      "1e-4 on 20 random instances"):
        rng = np.random.default_rng(60)
        for i in range(20):
            model = mlp.init_model([5], seed=int(rng.integers(0, 2**31)))
            n = int(rng.integers(1, 8))
            x = rng.normal(0.0, 1.5, size=(n, anomaly.N_FEATURES))
            y = rng.integers(0, anomaly.N_CLASSES, size=n)
            _, grad_w, grad_b = mlp.loss_and_grads(model, x, y)
            fd_w, fd_b = finite_difference_grads(model, x, y, eps=1e-5)
            err = max(max_relative_error(grad_w, fd_w), max_relative_error(grad_b, fd_b))
            assert err < 1e-4, f"instance {i}: max relative error {err}"


def test_criterion_7_allocation_oracle():
    with criterion(7, "greedy allocation within 5% of brute force on 50 instances"):
        rng = np.random.default_rng(70)
        params = ran_sim.SimConfig().link
        for i in range(50):
            n_ues = int(rng.integers(1, 4))
            total = int(rng.integers(1, 13))
            reports = [
                mk_report(
                    ue_id=u,
                    sinr=float(rng.uniform(-10, 30)),
                    cqi=int(rng.integers(0, 16)),
                    demand=float(rng.uniform(0.0, 6.0)),
                    priority=int(rng.integers(1, 5)),
                )
                for u in range(n_ues)
            ]
            cell = mk_cell(total_prbs=total)
            plan = twin_engine.allocate_prbs(mk_batch(reports), [cell], params)
            greedy = allocation_objective(plan.grants, reports, params)
            best = brute_force_best_objective(reports, total, params)
            assert greedy >= 0.95 * best - 1e-12, f"instance {i}: {greedy} vs {best}"


def test_criterion_8_cli_determinism(artifacts, tmp_path):
    with criterion(8, "every CLI command reproduces byte-identical artifacts when re-run"):
        import hashlib

        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        first = artifacts["paths"]
        rerun = tmp_path / "rerun"
        rerun.mkdir()

        dataset2 = rerun / "dataset.csv"
        assert main(["gen-dataset", "--out", str(dataset2)]) == 0
        assert digest(dataset2) == digest(first["dataset"])

        model2, stats2, report2 = rerun / "model.txt", rerun / "stats.csv", rerun / "report.csv"
        assert main([
            "train", "--dataset", str(dataset2), "--model-out", str(model2),
            "--stats-out", str(stats2), "--report-out", str(report2),
        ]) == 0
        assert digest(model2) == digest(first["model"])
        assert digest(stats2) == digest(first["stats"])
        assert digest(report2) == digest(first["report"])

        eval2 = rerun / "eval"
        assert main([
            "eval", "--model", str(model2), "--stats", str(stats2),
            "--dataset", str(dataset2), "--out-dir", str(eval2),
        ]) == 0
        for name in ("metrics.csv", "confusion.csv"):
            assert digest(eval2 / name) == digest(first["eval_dir"] / name)

        embedding2 = rerun / "embedding.csv"
        assert main([
            "tsne", "--model", str(model2), "--stats", str(stats2),
            "--dataset", str(dataset2), "--out", str(embedding2),
        ]) == 0
        assert digest(embedding2) == digest(first["embedding"])

        loop2 = rerun / "loop"
        assert main([
            "closed-loop", "--model", str(model2), "--stats", str(stats2),
            "--out-dir", str(loop2),
        ]) == 0
        for name in ("episode.jsonl", "summary.csv"):
            assert digest(loop2 / name) == digest(first["loop_dir"] / name)


def test_criterion_9_invariant_suite():
    with criterion(9, "invariant sweep: radio bounds, PRB conservation, softmax, "
                      "t-SNE P-matrix and KL, bus ordering, loop safety"):
        rng = np.random.default_rng(90)
        params = ran_sim.SimConfig().link

        # radio-model monotonicity and the RSRQ bound, on the link model's
        # columns: per draw, two distances, a serving and an interferer
        # power in mW, and two SINRs
        draws = [
            (sorted(rng.uniform(0.1, 3000.0, size=2)), rng.uniform(1e-9, 5.0),
             rng.uniform(0, 10), sorted(rng.uniform(-30, 30, size=2)))
            for _ in range(100)
        ]
        distances, serving_mw, interferer_mw, sinrs = (np.array(c) for c in zip(*draws))
        loss = rm.path_loss_db(distances, params)
        assert (loss[:, 0] <= loss[:, 1]).all()
        rsrp = 10.0 * np.log10(np.column_stack([serving_mw, interferer_mw]))
        noise_mw = rm.dbm_to_mw(rm.noise_power_per_re_dbm(params))
        channel = rm.sample_channel(rsrp, np.zeros(len(rsrp), dtype=np.int64), noise_mw)
        assert (channel.rsrq_db <= 0.0).all()
        cqi = rm.cqi_from_sinr(sinrs)
        assert (cqi[:, 0] <= cqi[:, 1]).all()

        # PRB conservation per cell on random instances
        for _ in range(20):
            cells = [mk_cell(cell_id=c, total_prbs=int(rng.integers(1, 30))) for c in range(3)]
            reports = [
                mk_report(
                    ue_id=u, cell_id=int(rng.integers(0, 3)),
                    sinr=float(rng.uniform(-10, 30)), cqi=int(rng.integers(0, 16)),
                    demand=float(rng.uniform(0, 10)), priority=int(rng.integers(1, 5)),
                )
                for u in range(12)
            ]
            plan = twin_engine.allocate_prbs(mk_batch(reports), cells, params)
            for cell in cells:
                used = sum(
                    plan.grants[r.ue_id] for r in reports if r.serving_cell == cell.cell_id
                )
                assert used <= cell.total_prbs

        # softmax normalization at extreme logits
        model = mlp.init_model([], seed=1)
        for w in model.weights:
            w.fill(0.0)
        for extremes in ([1e4, -1e4, 0, 0], [-1e4, -1e4, -1e4, 1e4]):
            model.biases[-1][:] = extremes
            _, probs = mlp.forward(model, np.zeros(anomaly.N_FEATURES))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.isfinite(probs).all()

        # t-SNE P-matrix properties and KL improvement
        points = rng.normal(0, 1, size=(50, 4))
        p = evaluation.joint_probabilities(points, 12.0)
        assert np.abs(p - p.T).max() < 1e-12
        assert (p >= 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        emb = evaluation.tsne(
            points,
            evaluation.TsneConfig(
                perplexity=12.0, iterations=400, learning_rate=10.0, seed=9,
            ),
        )
        assert emb.final_kl < emb.initial_kl

        # bus: exactly-once, in-order, duplicate rejected
        bus = ric.MessageBus()
        subs = [bus.subscribe(), bus.subscribe()]
        for t in (1, 2, 3):
            bus.publish(mk_batch([], tick=t))
        for sub in subs:
            assert [sub.pop().tick for _ in range(3)] == [1, 2, 3]
            with pytest.raises(ProtocolError):
                sub.pop()
        with pytest.raises(ProtocolError):
            bus.publish(mk_batch([], tick=3))

        # loop safety: an always-Normal stub leaves the trajectory unchanged
        config = ran_sim.SimConfig(n_cells=2, n_ues=6, n_ticks=25, seed=91)
        stub = mlp.init_model([], seed=0)
        for w in stub.weights:
            w.fill(0.0)
        stats = unit_stats()

        state = ran_sim.init_sim(config)
        for _ in range(config.n_ticks):
            state, reports, _ = ran_sim.step(state)
            plan, _ = twin_engine.twin_tick(reports, state.cells, config.link)
            ran_sim.apply_allocation(state, plan, config.link)
        plain = snapshot(state)

        log = ric.closed_loop_run(config, stub, stats, [])
        assert log.actions == []

        loop = ric.ControlLoop(config, stub, stats)
        for _ in range(config.n_ticks):
            actions, _ = loop.tick()
            assert actions == []
        assert snapshot(loop.state) == plain
