"""Command-line entry point wiring the pipeline stages together.

Subcommands: gen-dataset, train, eval, tsne, closed-loop,
print-default-config. Every run writes a JSON manifest (resolved config,
seeds, input/output digests, timings) next to its primary output; manifests
are written even on failure, with the error recorded.

Exit codes: 0 success; `EXIT_CODES` maps each error kind to its code.
The train and tsne flag defaults are those of `mlp.TrainConfig` and
`evaluation.TsneConfig`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import anomaly, evaluation, mlp, ran_sim, ric
from .anomaly import CLASS_NAMES, FeatureStats
from .errors import (
    ConfigurationError,
    DataFormatError,
    DomainError,
    NumericError,
    PipelineError,
    ProtocolError,
    RantwinError,
)
from .ran_sim import AnomalyClass, FaultSpec

EXIT_OK = 0
# The exit code of each error kind `main` reports; a TrainingError is a
# NumericError, and any other error propagates.
EXIT_CODES = {
    ConfigurationError: 2,
    DomainError: 2,
    DataFormatError: 2,
    OSError: 3,
    NumericError: 4,
    PipelineError: 5,
    ProtocolError: 5,
}

_TRAIN_DEFAULTS = mlp.TrainConfig()
_TSNE_DEFAULTS = evaluation.TsneConfig()

DEFAULT_N_SAMPLES = 2505
DEFAULT_DATASET_SEED = 7
DEFAULT_SPLIT_SEED = 13
DEFAULT_TRAIN_SEED = _TRAIN_DEFAULTS.seed
DEFAULT_TSNE_SEED = _TSNE_DEFAULTS.seed
DEFAULT_TRAIN_FRACTION = 0.8
DEFAULT_HIDDEN = "16,16"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    """Collects run metadata. As a context manager it writes it as JSON on
    exit, also when the run fails; the error is then recorded and re-raised."""

    def __init__(self, path: Path, command: str, config: dict, seeds: dict, inputs: list):
        self.path = Path(path)
        self.command = command
        self.config = config
        self.seeds = seeds
        self.input_paths = [str(p) for p in inputs]
        self.output_paths: list[str] = []
        self.timings_s: dict[str, float] = {}
        self.error: str | None = None
        self._t0 = time.perf_counter()

    def __enter__(self) -> "Manifest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.error = f"{type(exc).__name__}: {exc}"
        self.write()

    def add_output(self, path) -> None:
        self.output_paths.append(str(path))

    def write(self) -> None:
        self.timings_s["total"] = time.perf_counter() - self._t0
        digests = {}
        for p in self.input_paths + self.output_paths:
            pp = Path(p)
            digests[p] = _sha256(pp) if pp.is_file() else None
        body = {
            "command": self.command,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": {p: digests[p] for p in self.input_paths},
            "outputs": {p: digests[p] for p in self.output_paths},
            "timings_s": self.timings_s,
            "error": self.error,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _manifest_path(out) -> Path:
    """The manifest beside the output file `out`."""
    return Path(f"{out}.manifest.json")


def _require_file(path, what: str) -> str:
    """Missing inputs are configuration mistakes, not I/O failures."""
    if not Path(path).is_file():
        raise ConfigurationError(f"{what} file not found: {path}")
    return str(path)


def _load_config(path: str | None) -> ran_sim.SimConfig:
    if path is None:
        return ran_sim.SimConfig()
    return ran_sim.load_sim_config(_require_file(path, "config"))


def cmd_gen_dataset(args) -> int:
    with Manifest(
        _manifest_path(args.out),
        "gen-dataset",
        {"n_samples": args.n_samples, "class_mix": args.class_mix},
        {"dataset_seed": args.seed},
        [p for p in [args.config] if p],
    ) as manifest:
        config = _load_config(args.config)
        manifest.config["sim"] = ran_sim.sim_config_to_dict(config)
        manifest.seeds["sim_seed"] = config.seed
        mix = tuple(args.class_mix)
        samples = anomaly.generate_dataset(
            config, args.n_samples, mix, anomaly.default_fault_specs(), args.seed
        )
        anomaly.write_dataset_csv(samples, args.out)
        manifest.add_output(args.out)
        counts = dict(zip(CLASS_NAMES.values(),
                          np.bincount(samples.label, minlength=anomaly.N_CLASSES).tolist()))
        print(f"wrote {len(samples)} samples to {args.out} (class counts: {counts})")
    return EXIT_OK


def cmd_train(args) -> int:
    with Manifest(
        _manifest_path(args.model_out),
        "train",
        {
            "hidden": args.hidden,
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "learning_rate": args.learning_rate,
            "train_fraction": args.train_fraction,
        },
        {"split_seed": args.split_seed, "train_seed": args.train_seed,
         "init_seed": args.train_seed},
        [args.dataset],
    ) as manifest:
        try:
            hidden = [int(v) for v in args.hidden.split(",") if v.strip()] if args.hidden else []
        except ValueError as e:
            raise ConfigurationError(f"bad --hidden value: {e}") from e
        train_config = mlp.TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            seed=args.train_seed,
        )
        samples = anomaly.read_dataset_csv(_require_file(args.dataset, "dataset"))
        train_set, test_set = anomaly.split_dataset(samples, args.train_fraction, args.split_seed)
        if len(train_set) == 0 or len(test_set) == 0:
            raise ConfigurationError("split produced an empty train or test side")
        stats = FeatureStats.from_samples(train_set)
        x_train = anomaly.standardize(train_set.features, stats)
        x_test = anomaly.standardize(test_set.features, stats)

        model = mlp.init_model(hidden, seed=args.train_seed)
        model, report = mlp.train(
            model, list(zip(x_train, train_set.label)), list(zip(x_test, test_set.label)),
            train_config,
        )

        mlp.save_model(model, args.model_out)
        anomaly.write_stats_csv(stats, args.stats_out)
        anomaly.write_csv(args.report_out, "epoch,train_loss,test_accuracy",
                          zip(range(1, len(report.train_loss) + 1),
                              report.train_loss, report.test_accuracy))
        manifest.add_output(args.model_out)
        manifest.add_output(args.stats_out)
        manifest.add_output(args.report_out)
        print(
            f"trained on {len(train_set)}/{len(samples)} samples "
            f"(test {len(test_set)}); final test accuracy {report.test_accuracy[-1]:.4f}; "
            f"model digest {report.final_model_hash}"
        )
    return EXIT_OK


def _select_split(samples, which: str, train_fraction: float, split_seed: int):
    if which == "all":
        return samples
    train_set, test_set = anomaly.split_dataset(samples, train_fraction, split_seed)
    return train_set if which == "train" else test_set


def _load_split_inputs(args):
    """The model, the stats, the dataset, its `args.split` split and that
    split's standardized features and labels; an empty split is an error."""
    model = mlp.load_model(_require_file(args.model, "model"))
    stats = anomaly.read_stats_csv(_require_file(args.stats, "stats"))
    samples = anomaly.read_dataset_csv(_require_file(args.dataset, "dataset"))
    subset = _select_split(samples, args.split, args.train_fraction, args.split_seed)
    if len(subset) == 0:
        raise ConfigurationError(f"{args.split} split is empty")
    return model, stats, samples, subset, anomaly.standardize(subset.features, stats), subset.label


def cmd_eval(args) -> int:
    out_dir = Path(args.out_dir)
    with Manifest(
        out_dir / "eval.manifest.json",
        "eval",
        {"split": args.split, "train_fraction": args.train_fraction},
        {"split_seed": args.split_seed},
        [args.model, args.stats, args.dataset],
    ) as manifest:
        model, stats, samples, subset, x, y = _load_split_inputs(args)
        predictions = mlp.predict_batch(model, x)
        cm = evaluation.confusion(predictions, y)
        acc = cm.accuracy()

        out_dir.mkdir(parents=True, exist_ok=True)
        confusion_path = out_dir / "confusion.csv"
        evaluation.write_confusion_csv(cm, confusion_path)
        metrics_path = out_dir / "metrics.csv"
        metrics = [("accuracy", acc)]
        for name, precision, recall in zip(CLASS_NAMES.values(), cm.precision().tolist(),
                                           cm.recall().tolist()):
            metrics += [(f"precision_{name}", precision), (f"recall_{name}", recall)]
        anomaly.write_csv(metrics_path, "metric,value", metrics)
        manifest.add_output(confusion_path)
        manifest.add_output(metrics_path)
        print(f"accuracy on {args.split} split ({len(subset)} samples): {acc:.4f}")

        if args.split == "train":
            test_set = _select_split(samples, "test", args.train_fraction, args.split_seed)
            xt = anomaly.standardize(test_set.features, stats)
            test_acc = evaluation.confusion(mlp.predict_batch(model, xt), test_set.label).accuracy()
            if acc < test_acc:
                print(
                    f"warning: train-split accuracy {acc:.4f} below test accuracy "
                    f"{test_acc:.4f}",
                    file=sys.stderr,
                )
    return EXIT_OK


def cmd_tsne(args) -> int:
    with Manifest(
        _manifest_path(args.out),
        "tsne",
        {
            "perplexity": args.perplexity,
            "iterations": args.iterations,
            "learning_rate": args.learning_rate,
            "split": args.split,
            "train_fraction": args.train_fraction,
        },
        {"split_seed": args.split_seed, "tsne_seed": args.seed},
        [args.model, args.stats, args.dataset],
    ) as manifest:
        config = evaluation.TsneConfig(
            perplexity=args.perplexity,
            iterations=args.iterations,
            learning_rate=args.learning_rate,
            seed=args.seed,
        )
        model, _, _, subset, x, _ = _load_split_inputs(args)
        probs = mlp.forward_rows(model, x)
        embedding = evaluation.tsne(probs, config)
        score = evaluation.silhouette(embedding.points, subset.label)

        rows = zip(subset.ue_id.tolist(), subset.tick.tolist(), subset.label.tolist(),
                   *embedding.points.T.tolist())
        anomaly.write_csv(args.out, "ue_id,tick,label,x,y", rows)
        manifest.add_output(args.out)
        print(
            f"embedded {len(subset)} {args.split}-split points; "
            f"KL {embedding.initial_kl:.4f} -> {embedding.final_kl:.4f}; "
            f"silhouette {score:.4f}"
        )
        if embedding.final_kl >= embedding.initial_kl:
            # The step size does not scale with n; on a handful of points the
            # descent can overshoot and the embedding is no better than its start.
            print(
                f"warning: t-SNE on {len(subset)} points did not descend (KL "
                f"{embedding.initial_kl:.4f} -> {embedding.final_kl:.4f}); try a smaller "
                f"--learning-rate than {args.learning_rate:g}",
                file=sys.stderr,
            )
    return EXIT_OK


def default_demo_schedule(config: ran_sim.SimConfig) -> list[ric.ScheduledFault]:
    """One fault per error class, spread across the run: onsets 100, 250 and
    400, each no later than the k-th quarter of the run (k = 1, 2, 3) and no
    earlier than tick 1. The UEs are 5, 17 and 29 modulo `n_ues`, each moved
    on to the next UE not yet taken, so they are distinct when `n_ues` >= 3.
    A fault on the UE of a later fault ends the tick before that one starts,
    and is left out if that leaves it no tick."""
    specs = anomaly.default_fault_specs()
    onsets = [max(1, min(onset, (k + 1) * config.n_ticks // 4))
              for k, onset in enumerate((100, 250, 400))]
    classes = [AnomalyClass.RSRP_ERROR, AnomalyClass.RSRQ_ERROR, AnomalyClass.SINR_ERROR]
    ue_ids: list[int] = []
    for ue_id in (5, 17, 29):
        ue_id %= config.n_ues
        while ue_id in ue_ids and len(ue_ids) < config.n_ues:
            ue_id = (ue_id + 1) % config.n_ues
        ue_ids.append(ue_id)
    schedule = []
    for k, (onset, ue_id, cls) in enumerate(zip(onsets, ue_ids, classes)):
        end = min([onset + specs[cls].duration_ticks,
                   *(t for t, u in zip(onsets[k + 1:], ue_ids[k + 1:]) if u == ue_id)])
        if end > onset:
            spec = dataclasses.replace(specs[cls], duration_ticks=end - onset)
            schedule.append(ric.ScheduledFault(onset_tick=onset, ue_id=ue_id, spec=spec))
    return schedule


def _parse_class(value) -> AnomalyClass:
    """The class a schedule entry gives by name or by code; a code must be an
    int, not a bool, as AnomalyClass(True) is RsrpError."""
    if isinstance(value, str):
        for cls, name in CLASS_NAMES.items():
            if value == name:
                return cls
        raise ConfigurationError(f"unknown anomaly class name {value!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"class must be an integer or a class name, got {value!r}")
    return AnomalyClass(value)


def load_schedule(path) -> list[ric.ScheduledFault]:
    data = ran_sim.read_json_file(path, "schedule")
    if not isinstance(data, dict) or "faults" not in data or not isinstance(data["faults"], list):
        raise ConfigurationError("schedule file must be an object with a 'faults' list")
    schedule = []
    for i, entry in enumerate(data["faults"]):
        required = {"onset_tick", "ue_id", "class", "offset_db", "jitter_db", "duration_ticks"}
        if not isinstance(entry, dict) or set(entry) != required:
            raise ConfigurationError(
                f"schedule fault #{i}: expected exactly the keys {sorted(required)}"
            )
        try:
            spec = FaultSpec(_parse_class(entry["class"]), entry["offset_db"], entry["jitter_db"],
                             entry["duration_ticks"])
            schedule.append(ric.ScheduledFault(entry["onset_tick"], entry["ue_id"], spec))
        except (ConfigurationError, DomainError, ValueError) as e:
            raise ConfigurationError(f"schedule fault #{i}: {e}") from e
    return schedule


def cmd_closed_loop(args) -> int:
    out_dir = Path(args.out_dir)
    with Manifest(
        out_dir / "closed-loop.manifest.json",
        "closed-loop",
        {},
        {},
        [p for p in [args.config, args.model, args.stats, args.schedule] if p],
    ) as manifest:
        config = _load_config(args.config)
        manifest.config["sim"] = ran_sim.sim_config_to_dict(config)
        manifest.seeds["sim_seed"] = config.seed
        model = mlp.load_model(_require_file(args.model, "model"))
        stats = anomaly.read_stats_csv(_require_file(args.stats, "stats"))
        if args.schedule:
            schedule = load_schedule(_require_file(args.schedule, "schedule"))
        else:
            schedule = default_demo_schedule(config)

        try:
            log = ric.closed_loop_run(config, model, stats, schedule)
        except RantwinError:
            raise
        except Exception as e:  # unexpected mid-run failure
            raise PipelineError(f"closed loop failed: {e}") from e

        out_dir.mkdir(parents=True, exist_ok=True)
        episode_path = out_dir / "episode.jsonl"
        summary_path = out_dir / "summary.csv"
        ric.write_episode_jsonl(log, episode_path)
        ric.write_episode_summary_csv(log, summary_path)
        manifest.add_output(episode_path)
        manifest.add_output(summary_path)

        detected = sum(1 for e in log.fault_events if e.detect_tick is not None)
        print(f"ran {log.n_ticks} ticks; {len(log.fault_events)} scheduled faults, "
              f"{detected} detected; {len(log.actions)} control actions")
        for e in log.fault_events:
            det = e.detection_latency_ticks()
            rest = e.restoration_latency_ticks()
            print(
                f"  fault {e.fault_id} ({CLASS_NAMES[e.cls]} on ue {e.ue_id} @ tick {e.onset_tick}): "
                f"detection {'-' if det is None else f'{det} ticks'}, "
                f"restoration {'-' if rest is None else f'{rest} ticks'}"
            )
    return EXIT_OK


def cmd_print_default_config(args) -> int:
    print(json.dumps(ran_sim.sim_config_to_dict(ran_sim.SimConfig()), indent=2))
    return EXIT_OK


def _class_mix(text: str) -> list[float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != anomaly.N_CLASSES:
        raise argparse.ArgumentTypeError(f"need {anomaly.N_CLASSES} comma-separated fractions")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rantwin",
        description="RAN digital twin: dataset generation, anomaly-detector "
        "training/evaluation, t-SNE export, and the closed-loop demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="simulate the network and write a labeled dataset CSV")
    p.add_argument("--config", help="simulation config JSON (defaults when omitted)")
    p.add_argument("--out", required=True, help="output dataset CSV path")
    p.add_argument("--n-samples", type=int, default=DEFAULT_N_SAMPLES)
    p.add_argument("--class-mix", type=_class_mix, default=[0.25, 0.25, 0.25, 0.25],
                   help="comma-separated fractions for Normal,RsrpError,RsrqError,SinrError")
    p.add_argument("--seed", type=int, default=DEFAULT_DATASET_SEED,
                   help="dataset generation seed (fault schedule + subsampling)")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train the anomaly classifier on a dataset CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--stats-out", required=True)
    p.add_argument("--report-out", required=True, help="per-epoch loss/accuracy CSV")
    p.add_argument("--hidden", default=DEFAULT_HIDDEN, help="comma-separated hidden layer sizes")
    p.add_argument("--epochs", type=int, default=_TRAIN_DEFAULTS.epochs)
    p.add_argument("--batch-size", type=int, default=_TRAIN_DEFAULTS.batch_size)
    p.add_argument("--learning-rate", type=float, default=_TRAIN_DEFAULTS.learning_rate)
    p.add_argument("--train-fraction", type=float, default=DEFAULT_TRAIN_FRACTION)
    p.add_argument("--split-seed", type=int, default=DEFAULT_SPLIT_SEED)
    p.add_argument("--train-seed", type=int, default=DEFAULT_TRAIN_SEED)
    p.set_defaults(func=cmd_train)

    # The flags of eval and tsne that name a model and a split of a dataset.
    split_inputs = argparse.ArgumentParser(add_help=False)
    split_inputs.add_argument("--model", required=True)
    split_inputs.add_argument("--stats", required=True)
    split_inputs.add_argument("--dataset", required=True)
    split_inputs.add_argument("--split", choices=["train", "test", "all"], default="test")
    split_inputs.add_argument("--train-fraction", type=float, default=DEFAULT_TRAIN_FRACTION)
    split_inputs.add_argument("--split-seed", type=int, default=DEFAULT_SPLIT_SEED)

    p = sub.add_parser("eval", parents=[split_inputs],
                       help="evaluate a trained model; writes confusion + metrics CSVs")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tsne", parents=[split_inputs],
                       help="embed the model's output probabilities in 2-D")
    p.add_argument("--out", required=True, help="embedding CSV path")
    p.add_argument("--perplexity", type=float, default=_TSNE_DEFAULTS.perplexity)
    p.add_argument("--iterations", type=int, default=_TSNE_DEFAULTS.iterations)
    p.add_argument("--learning-rate", type=float, default=_TSNE_DEFAULTS.learning_rate)
    p.add_argument("--seed", type=int, default=DEFAULT_TSNE_SEED)
    p.set_defaults(func=cmd_tsne)

    p = sub.add_parser("closed-loop", help="run the full detect-and-remediate loop")
    p.add_argument("--config", help="simulation config JSON (defaults when omitted)")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--schedule", help="fault schedule JSON (built-in demo schedule when omitted)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_closed_loop)

    p = sub.add_parser("print-default-config", help="print the fully expanded default config")
    p.set_defaults(func=cmd_print_default_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
