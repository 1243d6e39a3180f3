import hashlib
import json

import numpy as np
import pytest

from rantwin import anomaly, cli, mlp, ran_sim, ric
from rantwin.cli import default_demo_schedule, main

from oracles import unit_stats


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def float_leaves(section: dict, prefix: str = ""):
    """Dotted names of the float values of a config dict, nested sections included."""
    for name, value in section.items():
        if isinstance(value, dict):
            yield from float_leaves(value, f"{prefix}{name}.")
        elif isinstance(value, float):
            yield prefix + name


class TestGenDataset:
    def test_zero_samples_exits_2_with_message(self, tmp_path, capsys):
        rc = main(["gen-dataset", "--out", str(tmp_path / "d.csv"), "--n-samples", "0"])
        assert rc == 2
        assert "n_samples must be positive" in capsys.readouterr().err

    def test_nan_class_mix_exits_2_and_records_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["gen-dataset", "--out", str(out), "--class-mix", "nan,0.5,0.5,0"])
        assert rc == 2
        assert "class_mix fractions must be finite" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["error"].startswith("ConfigurationError: class_mix fractions")

    def test_small_run_row_count_and_manifest(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["gen-dataset", "--out", str(out), "--n-samples", "80", "--seed", "3"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == anomaly.DATASET_HEADER
        assert len(lines) == 81
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["command"] == "gen-dataset"
        assert manifest["error"] is None
        assert manifest["outputs"][str(out)] == sha(out)
        assert manifest["seeds"]["dataset_seed"] == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["gen-dataset", "--out", str(out), "--n-samples", "120", "--seed", "9"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_uez": 10}))
        rc = main(["gen-dataset", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "n_uez" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["link", "mobility", "traffic"])
    def test_non_object_section_exits_2(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: 5}))
        rc = main(["gen-dataset", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert f"config.{section} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("n_ues", 5.7), ("seed", True), ("total_prbs", 49.9)])
    def test_non_integer_value_exits_2(self, tmp_path, capsys, name, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        rc = main(["gen-dataset", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert f"config.{name} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(float_leaves(ran_sim.sim_config_to_dict(ran_sim.SimConfig()))))
    @pytest.mark.parametrize("value", [True, "36.6"])
    def test_non_number_float_value_exits_2(self, tmp_path, capsys, name, value):
        # a boolean or a numeric string is rejected, not read as a number
        body = value
        for key in reversed(name.split(".")):
            body = {key: body}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        rc = main(["gen-dataset", "--config", str(cfg), "--out", str(tmp_path / "d.csv"),
                   "--n-samples", "40"])
        assert rc == 2
        assert f"config.{name} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("text, name", [
        ('{"area_m": NaN}', "area_m"),
        ('{"tick_ms": 1' + "0" * 400 + "}", "tick_ms"),
        ('{"hysteresis_db": 1e999}', "hysteresis_db"),
        ('{"link": {"noise_figure_db": -Infinity}}', "link.noise_figure_db"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["gen-dataset", "--config", str(cfg), "--out", str(tmp_path / "d.csv"),
                   "--n-samples", "40"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config.{name} must be finite" in err or f"config.{name} is too large" in err
        assert not (tmp_path / "d.csv").exists()

    def test_failure_still_writes_manifest(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["gen-dataset", "--out", str(out), "--n-samples", "0"])
        assert rc == 2
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert "n_samples must be positive" in manifest["error"]

    def test_config_file_not_mutated(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_ues": 20, "n_ticks": 300}))
        before = sha(cfg)
        rc = main(["gen-dataset", "--config", str(cfg), "--out", str(tmp_path / "d.csv"),
                   "--n-samples", "60"])
        assert rc == 0
        assert sha(cfg) == before


def train_args(dataset, tmp_path, epochs="12", extra=()):
    return [
        "train",
        "--dataset", str(dataset),
        "--model-out", str(tmp_path / "model.txt"),
        "--stats-out", str(tmp_path / "stats.csv"),
        "--report-out", str(tmp_path / "report.csv"),
        "--epochs", epochs,
        *extra,
    ]


@pytest.fixture()
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    rc = main(["gen-dataset", "--out", str(path), "--n-samples", "400", "--seed", "5"])
    assert rc == 0
    return path


@pytest.fixture()
def untrained(tmp_path):
    """A valid zero-hidden-layer model and unit stats, without training."""
    model, stats = tmp_path / "untrained.txt", tmp_path / "unit_stats.csv"
    mlp.save_model(mlp.init_model([], seed=0), model)
    anomaly.write_stats_csv(unit_stats(), stats)
    return {"model": model, "stats": stats}


class TestManifestOnFailure:
    @pytest.mark.parametrize("command", ["gen-dataset", "train", "eval", "tsne", "closed-loop"])
    def test_failure_still_writes_manifest(self, tmp_path, command):
        missing = str(tmp_path / "missing")
        argv, manifest_path = {
            "gen-dataset": (["--config", missing, "--out", str(tmp_path / "d.csv")],
                            tmp_path / "d.csv.manifest.json"),
            "train": (["--dataset", missing, "--model-out", str(tmp_path / "m.txt"),
                       "--stats-out", str(tmp_path / "s.csv"),
                       "--report-out", str(tmp_path / "r.csv")],
                      tmp_path / "m.txt.manifest.json"),
            "eval": (["--model", missing, "--stats", missing, "--dataset", missing,
                      "--out-dir", str(tmp_path / "e")],
                     tmp_path / "e" / "eval.manifest.json"),
            "tsne": (["--model", missing, "--stats", missing, "--dataset", missing,
                      "--out", str(tmp_path / "emb.csv")],
                     tmp_path / "emb.csv.manifest.json"),
            "closed-loop": (["--model", missing, "--stats", missing,
                             "--out-dir", str(tmp_path / "loop")],
                            tmp_path / "loop" / "closed-loop.manifest.json"),
        }[command]
        assert main([command, *argv]) == 2
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == command
        assert manifest["error"].startswith("ConfigurationError: ")
        assert manifest["error"].endswith(f"file not found: {missing}")
        assert manifest["inputs"][missing] is None
        assert manifest["timings_s"]["total"] >= 0.0


    @pytest.mark.parametrize("command, flags", [
        ("gen-dataset", ["--config", "seed.json"]),
        ("gen-dataset", ["--seed", "-1"]),
        ("train", ["--split-seed", "-1"]),
        ("train", ["--train-seed", "-1"]),
        ("eval", ["--split-seed", "-1"]),
        ("tsne", ["--seed", "-1"]),
    ])
    def test_negative_seed_exits_2(self, small_dataset, untrained, tmp_path, command, flags):
        # numpy refuses a negative seed with a ValueError, a traceback at exit 1
        (tmp_path / "seed.json").write_text(json.dumps({"seed": -1}))
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        inputs = ["--model", str(untrained["model"]), "--stats", str(untrained["stats"]),
                  "--dataset", str(small_dataset)]
        argv, manifest_path = {
            "gen-dataset": (["--out", str(tmp_path / "d.csv"), "--n-samples", "40"],
                            tmp_path / "d.csv.manifest.json"),
            "train": (train_args(small_dataset, tmp_path)[1:], tmp_path / "model.txt.manifest.json"),
            "eval": (inputs + ["--out-dir", str(tmp_path / "e")],
                     tmp_path / "e" / "eval.manifest.json"),
            "tsne": (inputs + ["--out", str(tmp_path / "emb.csv")],
                     tmp_path / "emb.csv.manifest.json"),
        }[command]
        assert main([command, *argv, *flags]) == 2
        assert "seed must be >= 0, got -1" in json.loads(manifest_path.read_text())["error"]


class TestTrain:
    def test_outputs_and_printed_accuracy(self, small_dataset, tmp_path, capsys):
        rc = main(train_args(small_dataset, tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "final test accuracy" in out
        assert (tmp_path / "model.txt").exists()
        assert (tmp_path / "stats.csv").exists()
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0] == "epoch,train_loss,test_accuracy"
        assert len(report) == 13

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, tmp_path, capsys, value):
        # rejected with the other flags, before the dataset is read
        rc = main(train_args(tmp_path / "missing.csv", tmp_path,
                             extra=("--learning-rate", value)))
        assert rc == 2
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "model.txt").exists()

    def test_corrupt_row_exits_2_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        row = ",".join(["1"] * anomaly.N_FEATURES + ["0", "1", "5"])
        bad.write_text(f"{anomaly.DATASET_HEADER}\n{row}\nbroken\n")
        rc = main(train_args(bad, tmp_path))
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_fixed_seeds_identical_model_digest(self, small_dataset, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir(), d2.mkdir()
        for d in (d1, d2):
            rc = main(train_args(small_dataset, d))
            assert rc == 0
        assert sha(d1 / "model.txt") == sha(d2 / "model.txt")
        assert sha(d1 / "stats.csv") == sha(d2 / "stats.csv")
        assert sha(d1 / "report.csv") == sha(d2 / "report.csv")


    def test_defaults_train_the_library_default_model(self, tmp_path, capsys):
        """`rantwin train` without training flags fits what `mlp.train` fits
        at `TrainConfig()`, on the same split of the same file."""
        dataset = tmp_path / "d.csv"
        assert main(["gen-dataset", "--out", str(dataset), "--n-samples", "100", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["train", "--dataset", str(dataset), "--model-out", str(tmp_path / "model.txt"),
                     "--stats-out", str(tmp_path / "stats.csv"),
                     "--report-out", str(tmp_path / "report.csv")]) == 0
        printed = capsys.readouterr().out.split("model digest ")[1].strip()

        samples = anomaly.read_dataset_csv(dataset)
        train_set, test_set = anomaly.split_dataset(
            samples, cli.DEFAULT_TRAIN_FRACTION, cli.DEFAULT_SPLIT_SEED)
        stats = anomaly.FeatureStats.from_samples(train_set)
        x_train = anomaly.standardize(train_set.features, stats)
        x_test = anomaly.standardize(test_set.features, stats)
        config = mlp.TrainConfig()
        model = mlp.init_model([16, 16], seed=config.seed)
        model, report = mlp.train(model, list(zip(x_train, train_set.label)),
                                  list(zip(x_test, test_set.label)), config)
        assert printed == report.final_model_hash
        assert mlp.model_digest(mlp.load_model(tmp_path / "model.txt")) == report.final_model_hash


@pytest.fixture()
def trained(small_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    rc = main(train_args(small_dataset, root, epochs="40"))
    assert rc == 0
    return {
        "dataset": small_dataset,
        "model": root / "model.txt",
        "stats": root / "stats.csv",
    }


class TestEval:
    def test_eval_writes_metrics(self, trained, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main([
            "eval", "--model", str(trained["model"]), "--stats", str(trained["stats"]),
            "--dataset", str(trained["dataset"]), "--out-dir", str(out),
        ])
        assert rc == 0
        assert "accuracy on test split" in capsys.readouterr().out
        metrics = dict(
            line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]
        )
        assert 0.0 <= float(metrics["accuracy"]) <= 1.0
        confusion = (out / "confusion.csv").read_text().splitlines()
        assert confusion[0] == "true\\pred,Normal,RsrpError,RsrqError,SinrError"
        assert len(confusion) == 5
        assert confusion[1].startswith("Normal,")
        manifest = json.loads((out / "eval.manifest.json").read_text())
        assert manifest["error"] is None

    def test_train_split_sanity_path(self, trained, tmp_path):
        rc = main([
            "eval", "--model", str(trained["model"]), "--stats", str(trained["stats"]),
            "--dataset", str(trained["dataset"]), "--out-dir", str(tmp_path / "e"),
            "--split", "train",
        ])
        assert rc == 0

    def test_perfect_predictions_give_diagonal_confusion(self, trained, tmp_path):
        # relabel a dataset with the model's own predictions -> accuracy 1.0
        model = mlp.load_model(trained["model"])
        stats = anomaly.read_stats_csv(trained["stats"])
        samples = anomaly.read_dataset_csv(trained["dataset"])
        x = anomaly.standardize(samples.features, stats)
        relabeled = samples.copy()
        relabeled.label = np.argmax(mlp.forward_rows(model, x), axis=1)
        dataset = tmp_path / "relabel.csv"
        anomaly.write_dataset_csv(relabeled, dataset)
        out = tmp_path / "eval"
        rc = main([
            "eval", "--model", str(trained["model"]), "--stats", str(trained["stats"]),
            "--dataset", str(dataset), "--out-dir", str(out), "--split", "all",
        ])
        assert rc == 0
        metrics = dict(
            line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]
        )
        assert float(metrics["accuracy"]) == 1.0
        rows = (out / "confusion.csv").read_text().splitlines()[1:]
        counts = np.array([[int(v) for v in row.split(",")[1:]] for row in rows])
        assert np.array_equal(counts, np.diag(np.diag(counts)))

    def test_wrong_width_model_exits_2(self, trained, tmp_path, capsys):
        bad_model = tmp_path / "bad.txt"
        bad_model.write_text(mlp.MODEL_MAGIC + "\n7 4\n" + "0 0 0 0 0 0 0\n" * 4 + "0 0 0 0\n")
        rc = main([
            "eval", "--model", str(bad_model), "--stats", str(trained["stats"]),
            "--dataset", str(trained["dataset"]), "--out-dir", str(tmp_path / "e"),
        ])
        assert rc == 2


class TestTsne:
    def test_embedding_written_and_silhouette_printed(self, trained, tmp_path, capsys):
        out = tmp_path / "emb.csv"
        rc = main([
            "tsne", "--model", str(trained["model"]), "--stats", str(trained["stats"]),
            "--dataset", str(trained["dataset"]), "--out", str(out),
            "--perplexity", "12", "--iterations", "150",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "silhouette" in captured.out
        assert "did not descend" not in captured.err
        lines = out.read_text().splitlines()
        assert lines[0] == "ue_id,tick,label,x,y"
        assert len(lines) == 81  # 20% of 400

    def test_warns_when_kl_does_not_fall(self, tmp_path, capsys):
        # The 40 default samples of the CI smoke run leave 8 test-split
        # points, which diverge at the default learning rate.
        dataset = tmp_path / "d.csv"
        assert main(["gen-dataset", "--out", str(dataset), "--n-samples", "40"]) == 0
        assert main(["train", "--dataset", str(dataset), "--model-out", str(tmp_path / "m.txt"),
                     "--stats-out", str(tmp_path / "s.csv"),
                     "--report-out", str(tmp_path / "r.csv")]) == 0
        capsys.readouterr()
        out = tmp_path / "emb.csv"
        rc = main(["tsne", "--model", str(tmp_path / "m.txt"), "--stats", str(tmp_path / "s.csv"),
                   "--dataset", str(dataset), "--out", str(out),
                   "--perplexity", "2", "--iterations", "100"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "t-SNE on 8 points did not descend" in err
        assert "smaller --learning-rate than 200" in err
        assert len(out.read_text().splitlines()) == 9

    def test_infeasible_perplexity_exits_2(self, trained, tmp_path, capsys):
        rc = main([
            "tsne", "--model", str(trained["model"]), "--stats", str(trained["stats"]),
            "--dataset", str(trained["dataset"]), "--out", str(tmp_path / "emb.csv"),
            "--perplexity", "1000",
        ])
        assert rc == 2
        assert "perplexity" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name", [("--perplexity", "perplexity"),
                                            ("--learning-rate", "learning_rate")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, flag, name, value):
        # rejected with the other flags, before any input file is read
        missing = str(tmp_path / "missing")
        rc = main(["tsne", "--model", missing, "--stats", missing, "--dataset", missing,
                   "--out", str(tmp_path / "emb.csv"), flag, value])
        assert rc == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "emb.csv").exists()

    def test_fixed_seed_identical_embedding(self, trained, tmp_path):
        outs = [tmp_path / "e1.csv", tmp_path / "e2.csv"]
        for out in outs:
            rc = main([
                "tsne", "--model", str(trained["model"]), "--stats", str(trained["stats"]),
                "--dataset", str(trained["dataset"]), "--out", str(out),
                "--perplexity", "12", "--iterations", "120", "--seed", "44",
            ])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestClosedLoop:
    def test_empty_schedule_zero_fault_rows(self, trained, tmp_path):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"faults": []}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_ues": 10, "n_ticks": 60}))
        out = tmp_path / "loop"
        rc = main([
            "closed-loop", "--config", str(cfg), "--model", str(trained["model"]),
            "--stats", str(trained["stats"]), "--schedule", str(schedule),
            "--out-dir", str(out),
        ])
        assert rc == 0
        assert (out / "summary.csv").read_text().splitlines() == [
            "fault_id,ue_id,class,onset_tick,detect_tick,action_tick,restore_tick"
        ]

    def test_default_schedule_runs_and_reports(self, trained, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_ticks": 520}))
        out = tmp_path / "loop"
        rc = main([
            "closed-loop", "--config", str(cfg), "--model", str(trained["model"]),
            "--stats", str(trained["stats"]), "--out-dir", str(out),
        ])
        assert rc == 0
        assert "scheduled faults" in capsys.readouterr().out
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 4  # header + one row per class
        assert (out / "episode.jsonl").exists()

    def test_bad_schedule_exits_2(self, trained, tmp_path, capsys):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"faults": [{"onset_tick": 5}]}))
        rc = main([
            "closed-loop", "--model", str(trained["model"]),
            "--stats", str(trained["stats"]), "--schedule", str(schedule),
            "--out-dir", str(tmp_path / "loop"),
        ])
        assert rc == 2
        assert "fault #0" in capsys.readouterr().err

    def test_overlapping_schedule_exits_2(self, untrained, tmp_path, capsys):
        fault = {"onset_tick": 5, "ue_id": 1, "class": "RsrpError",
                 "offset_db": -20.0, "jitter_db": 3.0, "duration_ticks": 10}
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"faults": [fault, {**fault, "onset_tick": 14}]}))
        rc = main([
            "closed-loop", "--model", str(untrained["model"]),
            "--stats", str(untrained["stats"]), "--schedule", str(schedule),
            "--out-dir", str(tmp_path / "loop"),
        ])
        assert rc == 2
        assert "faults 0 and 1 overlap on UE 1: ticks 5..14 and 14..23" in capsys.readouterr().err
        assert not (tmp_path / "loop" / "episode.jsonl").exists()

    @pytest.mark.parametrize("field, value", [
        ("onset_tick", "abc"), ("class", 9), ("class", "Normal"), ("class", 0),
    ])
    def test_bad_schedule_value_exits_2(self, untrained, tmp_path, capsys, field, value):
        good = {"onset_tick": 5, "ue_id": 1, "class": "RsrpError",
                "offset_db": -20.0, "jitter_db": 3.0, "duration_ticks": 10}
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"faults": [good, {**good, field: value}]}))
        rc = main([
            "closed-loop", "--model", str(untrained["model"]),
            "--stats", str(untrained["stats"]), "--schedule", str(schedule),
            "--out-dir", str(tmp_path / "loop"),
        ])
        assert rc == 2
        assert "schedule fault #1" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("onset_tick", 5.9), ("ue_id", 1.2), ("duration_ticks", 10.8), ("class", 2.5),
        ("ue_id", True), ("class", True),
    ])
    def test_non_integer_schedule_value_exits_2(self, untrained, tmp_path, capsys, field, value):
        # a float or a boolean is rejected, not truncated to an int
        good = {"onset_tick": 5, "ue_id": 1, "class": 1,
                "offset_db": -20.0, "jitter_db": 3.0, "duration_ticks": 10}
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"faults": [good, {**good, field: value}]}))
        rc = main([
            "closed-loop", "--model", str(untrained["model"]),
            "--stats", str(untrained["stats"]), "--schedule", str(schedule),
            "--out-dir", str(tmp_path / "loop"),
        ])
        assert rc == 2
        assert f"schedule fault #1: {field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["offset_db", "jitter_db"])
    @pytest.mark.parametrize("value", [True, "3.0"])
    def test_non_number_schedule_value_exits_2(self, untrained, tmp_path, capsys, field, value):
        good = {"onset_tick": 5, "ue_id": 1, "class": 1,
                "offset_db": -20.0, "jitter_db": 3.0, "duration_ticks": 10}
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"faults": [good, {**good, field: value}]}))
        rc = main([
            "closed-loop", "--model", str(untrained["model"]),
            "--stats", str(untrained["stats"]), "--schedule", str(schedule),
            "--out-dir", str(tmp_path / "loop"),
        ])
        assert rc == 2
        assert f"schedule fault #1: {field} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["offset_db", "jitter_db"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_schedule_value_exits_2(self, untrained, tmp_path, capsys, field, value):
        good = {"onset_tick": 5, "ue_id": 1, "class": 1,
                "offset_db": -20.0, "jitter_db": 3.0, "duration_ticks": 10}
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"faults": [good, {**good, field: value}]}))
        rc = main([
            "closed-loop", "--model", str(untrained["model"]),
            "--stats", str(untrained["stats"]), "--schedule", str(schedule),
            "--out-dir", str(tmp_path / "loop"),
        ])
        assert rc == 2
        assert f"schedule fault #1: {field} must be finite" in capsys.readouterr().err

    def test_non_finite_stats_exits_2_naming_line(self, untrained, tmp_path, capsys):
        stats = tmp_path / "nan_stats.csv"
        lines = untrained["stats"].read_text().splitlines()
        lines[1] = f"{anomaly.FEATURE_NAMES[0]},nan,inf"
        stats.write_text("\n".join(lines) + "\n")
        rc = main([
            "closed-loop", "--model", str(untrained["model"]), "--stats", str(stats),
            "--out-dir", str(tmp_path / "loop"),
        ])
        assert rc == 2
        assert f"error: stats file {stats}: line 2: non-finite stats value" in capsys.readouterr().err
        assert not (tmp_path / "loop" / "episode.jsonl").exists()

    def test_missing_model_exits_2(self, trained, tmp_path, capsys):
        rc = main([
            "closed-loop", "--model", str(tmp_path / "nope.txt"),
            "--stats", str(trained["stats"]), "--out-dir", str(tmp_path / "loop"),
        ])
        assert rc == 2
        assert "model file not found" in capsys.readouterr().err


class TestDefaultDemoSchedule:
    @staticmethod
    def onsets(n_ticks):
        return [f.onset_tick for f in default_demo_schedule(ran_sim.SimConfig(n_ticks=n_ticks))]

    @pytest.mark.parametrize("n_ticks, expected", [(2000, [100, 250, 400]), (120, [30, 60, 90]),
                                                   (3, [1, 1, 2])])
    def test_onsets(self, n_ticks, expected):
        assert self.onsets(n_ticks) == expected

    def test_onsets_ascending_and_inside_every_run_length(self):
        """Distinct whenever the run has 4 ticks or more."""
        for n_ticks in range(1, 2001):
            onsets = self.onsets(n_ticks)
            assert all(1 <= t <= n_ticks for t in onsets), n_ticks
            assert all(a < b if n_ticks >= 4 else a <= b
                       for a, b in zip(onsets, onsets[1:])), n_ticks


    @staticmethod
    def ue_ids(n_ues):
        return [f.ue_id for f in default_demo_schedule(ran_sim.SimConfig(n_ues=n_ues))]

    def test_ues_distinct_for_every_network_of_three_or_more(self):
        for n_ues in range(3, 61):
            ue_ids = self.ue_ids(n_ues)
            assert len(set(ue_ids)) == 3 and all(0 <= u < n_ues for u in ue_ids), n_ues
            # 5, 17 and 29 modulo n_ues are kept when they are distinct
            wanted = [u % n_ues for u in (5, 17, 29)]
            if len(set(wanted)) == 3:
                assert ue_ids == wanted, n_ues
        # 5, 17 and 29 are all 5 modulo 12: the second and third move on
        assert self.ue_ids(12) == [5, 6, 7]

    @pytest.mark.parametrize("n_ues", [1, 2, 3])
    @pytest.mark.parametrize("n_ticks", [1, 3, 4, 80, 120, 190, 400])
    def test_closed_loop_accepts_it_on_small_networks(self, n_ues, n_ticks):
        config = ran_sim.SimConfig(n_ues=n_ues, n_ticks=n_ticks)
        schedule = default_demo_schedule(config)
        model = mlp.init_model([], seed=0)
        stats = unit_stats()
        log = ric.closed_loop_run(config, model, stats, schedule)
        assert len(log.fault_events) == len(schedule) >= 1

    def test_faults_on_one_ue_end_before_the_next_starts(self):
        schedule = default_demo_schedule(ran_sim.SimConfig(n_ues=1, n_ticks=190))
        assert [(f.onset_tick, f.spec.duration_ticks) for f in schedule] == [
            (47, 48), (95, 47), (142, 50)]
        # on distinct UEs every fault keeps its full 50 ticks
        assert all(f.spec.duration_ticks == 50
                   for f in default_demo_schedule(ran_sim.SimConfig(n_ticks=190)))


class TestPrintDefaultConfig:
    def test_prints_parseable_defaults(self, capsys):
        rc = main(["print-default-config"])
        assert rc == 0
        config = json.loads(capsys.readouterr().out)
        assert config["n_cells"] == 3
        assert config["n_ues"] == 50
        assert config["link"]["prb_bandwidth_hz"] == 180e3
