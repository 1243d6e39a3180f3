"""The benchmark's three workloads, their correctness checks and metrics.

Every workload runs in the calling process, single-threaded, and derives all
of its inputs from one workload seed. Seed 0 reproduces the CLI defaults
(sim 42, dataset 7, split 13, train 21, t-SNE 33); seed s adds s to each.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rantwin import anomaly, cli, evaluation, mlp, ran_sim, ric
from rantwin.anomaly import AnomalyClass

from probes import Probes, SpanTable

DEFAULT_SEEDS = {
    "sim": ran_sim.SimConfig().seed,
    "dataset": cli.DEFAULT_DATASET_SEED,
    "split": cli.DEFAULT_SPLIT_SEED,
    "train": cli.DEFAULT_TRAIN_SEED,
    "tsne": cli.DEFAULT_TSNE_SEED,
}
CLASS_MIX = (0.25, 0.25, 0.25, 0.25)
HIDDEN = [int(v) for v in cli.DEFAULT_HIDDEN.split(",")]

# Acceptance thresholds (criteria 1-3), unchanged.
N_SAMPLES = cli.DEFAULT_N_SAMPLES
SPLIT_SIZES = (2004, 501)
MIN_ACCURACY = 0.85
MIN_RECALL = 0.75
MIN_SILHOUETTE = 0.3

# One scheduled fault starts in every window of this many ticks.
FAULT_SPACING = 50
# Set-up repetitions per loop run.
SETUP_REPS = 3
# Percentile of tick_tail_ms. Higher ones moved by 20-35% between runs on a
# shared 2-vCPU host, more than any allowed bound; the run also prints the
# highest percentile with 10 ticks beyond it.
TAIL_PCT = 90.0

# Per-layer figures of layers one kind of workload never runs: reported as 0.
PIPELINE_ONLY = ("evaluation.silhouette", "cli.gen_dataset_self_s",
                 "cli.train_self_s", "cli.eval_self_s", "cli.tsne_self_s")
LOOP_ONLY = ("ric.detections_per_tick", "ric.actions_force_handover", "ric.actions_prb_boost",
             "ric.actions_in_fault_window_ratio", "ric.handover_revert_ratio")


@dataclass(frozen=True)
class Loop:
    n_ues: int
    n_cells: int
    n_ticks: int
    episodes: int  # distinct sim seeds per run; each is one closed_loop_run
    faults: bool
    setup_reps: int = SETUP_REPS  # setup_s is the median of these


@dataclass(frozen=True)
class Pipeline:
    tsne_iterations: int = 1000


WORKLOADS = {
    "loop-50x3-faults": Loop(n_ues=50, n_cells=3, n_ticks=2000, episodes=3, faults=True),
    "loop-1000x19-clean": Loop(n_ues=1000, n_cells=19, n_ticks=50, episodes=2, faults=False),
    "pipeline-default": Pipeline(),
}


def smoke_variant(workload):
    """A few ticks, or a pipeline with a short t-SNE: for the benchmark's tests."""
    if isinstance(workload, Loop):
        return replace(workload, n_ticks=5, episodes=1, setup_reps=1)
    return replace(workload, tsne_iterations=300)


def derived_seeds(seed: int) -> dict[str, int]:
    return {k: (v + seed) % 2**32 for k, v in DEFAULT_SEEDS.items()}


def tail_pct(n: int) -> float:
    """The highest percentile with at least 10 of ``n`` samples beyond it."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def tick_figures(passes: list[np.ndarray], n_ues: int) -> tuple[dict, str]:
    """Tick figures of a run whose untraced ticks come in passes (loop
    episodes or pipeline passes).

    The tail is the median over passes of each pass's TAIL_PCT tick, so a
    slow stretch of the machine that hits one pass moves it little.
    """
    ticks_ms = np.concatenate(passes) if passes else np.zeros(0)
    figures = {
        "tick_p50_ms": median(ticks_ms),
        "tick_tail_ms": median([percentile(t, TAIL_PCT) for t in passes]),
        "ue_ticks_per_s": n_ues * len(ticks_ms) / (float(ticks_ms.sum()) / 1e3)
        if len(ticks_ms) else 0.0,
    }
    top = tail_pct(len(ticks_ms))
    return figures, (f"ticks: {len(ticks_ms)} in {len(passes)} passes; tail = median of "
                     f"each pass's p{TAIL_PCT:g}; whole-run p{top:.4g} = "
                     f"{percentile(ticks_ms, top):.4g} ms")


def percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Outcome:
    """Operations attempted and failed, check results and fingerprints."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.fingerprints: dict[str, str] = {}

    def op(self, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def fingerprint(self, label: str, value: str) -> bool:
        """Record a determinism fingerprint; a second, different value fails."""
        previous = self.fingerprints.setdefault(label, value)
        return previous == value


class FingerprintStore:
    """Fingerprints of earlier runs in the same checkout, keyed by seed."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check_and_save(self, outcome: Outcome) -> None:
        known = self.data.setdefault(self.key, {})
        for label, value in sorted(outcome.fingerprints.items()):
            outcome.op(known.get(label, value) == value,
                       f"{label}: {value} differs from an earlier run's {known.get(label)}")
            known[label] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")


# -- model build (loop set-up) ---------------------------------------------------


def _arrays(samples, stats):
    x = np.stack([anomaly.standardize(s.features, stats) for s in samples])
    y = np.array([int(s.label) for s in samples], dtype=np.int64)
    return x, y


def quality_problems(accuracy: float, recalls) -> list[str]:
    problems = []
    if accuracy < MIN_ACCURACY:
        problems.append(f"test accuracy {accuracy:.4f} < {MIN_ACCURACY}")
    for cls, recall in zip(AnomalyClass, recalls):
        if recall < MIN_RECALL:
            problems.append(f"recall of {anomaly.CLASS_NAMES[cls]} {recall:.4f} < {MIN_RECALL}")
    return problems


def build_model():
    """The CLI's gen-dataset, train and eval at the default seeds, in-process.

    Returns (model, stats, timings_s, accuracy, problems).
    """
    seeds = DEFAULT_SEEDS
    t0 = time.perf_counter()
    samples = anomaly.generate_dataset(
        ran_sim.SimConfig(seed=seeds["sim"]), N_SAMPLES, CLASS_MIX,
        anomaly.default_fault_specs(), seeds["dataset"],
    )
    t1 = time.perf_counter()
    train_set, test_set = anomaly.split_dataset(samples, cli.DEFAULT_TRAIN_FRACTION, seeds["split"])
    stats = anomaly.FeatureStats.from_samples(train_set)
    x_train, y_train = _arrays(train_set, stats)
    x_test, y_test = _arrays(test_set, stats)
    model = mlp.init_model(HIDDEN, seed=seeds["train"])
    model, _ = mlp.train(model, list(zip(x_train, y_train)), list(zip(x_test, y_test)),
                         mlp.TrainConfig(seed=seeds["train"]))
    t2 = time.perf_counter()
    cm = evaluation.confusion(mlp.predict_batch(model, x_test), y_test)
    t3 = time.perf_counter()
    problems = []
    if (len(samples), len(train_set), len(test_set)) != (N_SAMPLES, *SPLIT_SIZES):
        problems.append(f"dataset {len(samples)} rows split {len(train_set)}/{len(test_set)}")
    problems += quality_problems(cm.accuracy(), cm.recall())
    timings = {"gen_dataset_s": t1 - t0, "train_s": t2 - t1, "pipeline_s": t3 - t0}
    return model, stats, timings, cm.accuracy(), problems


# -- loops -------------------------------------------------------------------------


def loop_config(w: Loop, seed: int, episode: int) -> ran_sim.SimConfig:
    sim_seed = (DEFAULT_SEEDS["sim"] + seed * w.episodes + episode) % 2**32
    return ran_sim.SimConfig(n_cells=w.n_cells, n_ues=w.n_ues, n_ticks=w.n_ticks, seed=sim_seed)


def fault_schedule(w: Loop, seed: int, episode: int) -> list[ric.ScheduledFault]:
    """Faults of all three classes spread over the whole episode.

    One fault starts at a random tick of every FAULT_SPACING-tick window, on a
    UE with no fault in progress; the classes take turns.
    """
    if not w.faults:
        return []
    rng = np.random.default_rng([seed % 2**32, episode])
    specs = anomaly.default_fault_specs()
    classes = [c for c in AnomalyClass if c != AnomalyClass.NORMAL]
    n_faults = max(1, w.n_ticks // FAULT_SPACING)
    spacing = w.n_ticks // n_faults
    busy_until: dict[int, int] = {}
    schedule = []
    for k in range(n_faults):
        onset = 1 + k * spacing + int(rng.integers(0, spacing))
        spec = specs[classes[k % len(classes)]]
        free = [u for u in range(w.n_ues) if busy_until.get(u, 0) < onset]
        ue_id = free[int(rng.integers(0, len(free)))]
        busy_until[ue_id] = onset + spec.duration_ticks
        schedule.append(ric.ScheduledFault(onset_tick=onset, ue_id=ue_id, spec=spec))
    return schedule


def episode_behaviour(log: ric.EpisodeLog, schedule, config: ran_sim.SimConfig) -> dict:
    """Counts of detections and actions, split by the scheduled fault windows."""
    windows: dict[int, list[tuple[int, int]]] = {}
    faulted_ue_ticks = 0
    for f in schedule:
        last = min(config.n_ticks, f.onset_tick + f.spec.duration_ticks - 1)
        windows.setdefault(f.ue_id, []).append((f.onset_tick, last))
        faulted_ue_ticks += last - f.onset_tick + 1

    def in_window(ue_id: int, tick: int) -> bool:
        return any(a <= tick <= b for a, b in windows.get(ue_id, ()))

    actions = log.actions
    return {
        "detections": len(log.detections),
        "false_detections": sum(not in_window(d.ue_id, d.tick) for d in log.detections),
        "clean_ue_ticks": config.n_ues * config.n_ticks - faulted_ue_ticks,
        "actions": len(actions),
        "actions_force_handover": sum(isinstance(a.kind, ric.ForceHandover) for a in actions),
        "actions_prb_boost": sum(isinstance(a.kind, ric.PrbBoost) for a in actions),
        "actions_in_fault_window": sum(in_window(a.ue_id, a.tick) for a in actions),
    }


def run_loop(w: Loop, seed: int, seconds: float, trace: bool, out_dir: Path,
             import_s: float) -> tuple[dict, Outcome, list[str]]:
    outcome = Outcome()
    lines: list[str] = []
    with Probes("ric.closed_loop_run", traced=trace) as probes:
        probes.tracing = trace
        setups, builds = [], []
        for _ in range(w.setup_reps):
            t0 = time.perf_counter()
            model, stats, timings, accuracy, problems = build_model()
            ran_sim.init_sim(loop_config(w, seed, 0))
            setups.append(time.perf_counter() - t0)
            builds.append(timings)
            outcome.op(not problems, "model build: " + "; ".join(problems))
            outcome.fingerprint("model", mlp.model_digest(model))
        probes.tracing = False

        episodes = [(loop_config(w, seed, e), fault_schedule(w, seed, e)) for e in range(w.episodes)]
        ticks = {False: [], True: []}      # tick durations, ms, by traced
        traced_ticks: list[np.ndarray] = []
        traced_tick_ms: list[np.ndarray] = []
        behaviour: list[dict] = []
        handovers = 0
        t_start = time.perf_counter()
        done = 0
        while True:
            e = done % w.episodes
            config, schedule = episodes[e]
            for traced in ((False, True) if trace else (False,)):
                probes.tracing = traced
                first_tick = probes.n_ticks
                try:
                    log = ric.closed_loop_run(config, model, stats, schedule)
                except Exception as exc:  # a failed episode is reported, not fatal
                    probes.tracing = False
                    outcome.op(False, f"episode {e}: {type(exc).__name__}: {exc}")
                    continue
                durations = probes.tick_durations_ms()
                n_ticks = len(durations)
                ticks[traced].append(durations)
                if traced:
                    traced_ticks.append(np.arange(first_tick, first_tick + n_ticks))
                    traced_tick_ms.append(durations)
                episode_path = out_dir / f"episode-{e}.jsonl"
                ric.write_episode_jsonl(log, episode_path)
                probes.tracing = False
                digest = sha256_file(episode_path)
                tick_ids = range(first_tick, first_tick + n_ticks)
                bad_ticks = sum(t in probes.ticks_failed for t in tick_ids)
                outcome.attempted += n_ticks
                outcome.failed += bad_ticks
                counts = episode_behaviour(log, schedule, config)
                fp = (f"sha256={digest} detections={counts['detections']} "
                      f"actions={counts['actions']} handovers={probes.handovers}")
                ok_count = n_ticks == config.n_ticks
                ok_fp = outcome.fingerprint(f"episode-{e}", fp)
                outcome.op(ok_count and ok_fp,
                           f"episode {e}: {n_ticks} ticks of {config.n_ticks}"
                           + ("" if ok_fp else "; differs from the same episode earlier in this run"))
                if done < w.episodes and not traced:
                    behaviour.append(counts)
                    handovers += probes.handovers
                    lines.append(f"fingerprint episode {e} (sim seed {config.seed}): {fp}")
            done += 1
            elapsed = time.perf_counter() - t_start
            if done >= w.episodes and elapsed + elapsed / done > seconds:
                break
        if trace:
            table = SpanTable(probes)
            probes.write_spans(out_dir / "spans.npz")

    lines += [f"check: {m}" for m in probes.failures + outcome.messages]
    untraced = np.concatenate(ticks[False]) if ticks[False] else np.zeros(0)
    np.save(out_dir / "ticks_ms.npy", untraced)
    total = {k: sum(b[k] for b in behaviour) for k in behaviour[0]} if behaviour else {}
    n_fixed_ticks = w.n_ticks * len(behaviour)
    figures, line = tick_figures(ticks[False], w.n_ues)
    lines.append(line)
    if not trace:
        lines.append(
            f"behaviour: {total.get('detections')} detections, "
            f"{total.get('false_detections')} outside fault windows in "
            f"{total.get('clean_ue_ticks')} clean UE-ticks; {total.get('actions')} actions, "
            f"{total.get('actions_in_fault_window')} inside fault windows")
    figures.update({
        "setup_s": import_s + median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "gen_dataset_s": median([b["gen_dataset_s"] for b in builds]),
        "train_s": median([b["train_s"] for b in builds]),
        "pipeline_s": median([b["pipeline_s"] for b in builds]),
        "test_accuracy": accuracy,
    })
    if not trace:
        return figures, outcome, lines

    traced_all = np.concatenate(traced_ticks) if traced_ticks else np.zeros(0, dtype=np.int64)
    traced_ms = np.concatenate(traced_tick_ms) if traced_tick_ms else np.zeros(0)
    layers = layer_metrics(table, probes, traced_all, traced_ms, tsne_iterations=1)
    forced = probes.counts.get("forced_handovers", 0)
    layers.update(dict.fromkeys(PIPELINE_ONLY, 0.0))
    layers.update({
        "ran_sim.handovers_per_tick": handovers / max(1, n_fixed_ticks),
        "ric.false_detections_per_kuetick":
            1000.0 * total.get("false_detections", 0) / max(1, total.get("clean_ue_ticks", 0)),
        "ric.detections_per_tick": total.get("detections", 0) / max(1, n_fixed_ticks),
        "ric.actions_force_handover": total.get("actions_force_handover", 0),
        "ric.actions_prb_boost": total.get("actions_prb_boost", 0),
        "ric.actions_in_fault_window_ratio":
            total.get("actions_in_fault_window", 0) / max(1, total.get("actions", 0)),
        "ric.handover_revert_ratio": probes.counts.get("handover_reverts", 0) / max(1, forced),
    })
    add_overhead(layers, untraced, traced_ms)
    return {**figures, **layers}, outcome, lines


# -- pipeline --------------------------------------------------------------------------


def read_metrics_csv(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}


def false_positives_per_k_clean(confusion_path: Path) -> float:
    """Non-Normal predictions per 1000 Normal-labelled (clean) test rows."""
    with open(confusion_path, newline="") as fh:
        rows = list(csv.reader(fh))
    normal = [int(v) for v in rows[1][1:]]
    return 1000.0 * sum(normal[1:]) / max(1, sum(normal))


def run_pipeline(w: Pipeline, seed: int, seconds: float, trace: bool, out_dir: Path,
                 import_s: float) -> tuple[dict, Outcome, list[str]]:
    outcome = Outcome()
    lines: list[str] = []
    s = derived_seeds(seed)
    t_setup = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "sim.json"
    config_path.write_text(json.dumps({"seed": s["sim"]}) + "\n")
    n_ues = ran_sim.SimConfig().n_ues
    setup_s = import_s + (time.perf_counter() - t_setup)

    stage_s: dict[bool, list[dict]] = {False: [], True: []}
    gen_ticks: dict[bool, list[np.ndarray]] = {False: [], True: []}
    handovers: list[int] = []
    quality = {}
    with Probes("anomaly.generate_dataset", traced=trace) as probes:
        t_start = time.perf_counter()
        done = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                rep = out_dir / f"rep{done}{'-traced' if traced else ''}"
                rep.mkdir(parents=True, exist_ok=True)
                p = {name: rep / name for name in (
                    "dataset.csv", "model.txt", "stats.csv", "report.csv", "eval", "embedding.csv")}
                stages = {
                    "gen-dataset": ["gen-dataset", "--config", config_path, "--out", p["dataset.csv"],
                                    "--seed", s["dataset"]],
                    "train": ["train", "--dataset", p["dataset.csv"], "--model-out", p["model.txt"],
                              "--stats-out", p["stats.csv"], "--report-out", p["report.csv"],
                              "--split-seed", s["split"], "--train-seed", s["train"]],
                    "eval": ["eval", "--model", p["model.txt"], "--stats", p["stats.csv"],
                             "--dataset", p["dataset.csv"], "--out-dir", p["eval"],
                             "--split-seed", s["split"]],
                    "tsne": ["tsne", "--model", p["model.txt"], "--stats", p["stats.csv"],
                             "--dataset", p["dataset.csv"], "--out", p["embedding.csv"],
                             "--split-seed", s["split"], "--seed", s["tsne"],
                             "--iterations", w.tsne_iterations],
                }
                times = {}
                first_tick = probes.n_ticks
                for stage, argv in stages.items():
                    probes.tracing = traced
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(sys.stderr):
                        rc = probes.call(f"cli.{stage}", cli.main, [str(a) for a in argv])
                    times[stage] = time.perf_counter() - t0
                    probes.tracing = False
                    outcome.op(rc == 0, f"rep {done} {stage}: exit code {rc}")
                    if rc != 0:
                        break
                    if stage == "gen-dataset":
                        durations = probes.tick_durations_ms()
                        gen_ticks[traced].append(durations)
                        tick_ids = range(first_tick, first_tick + len(durations))
                        bad = sum(t in probes.ticks_failed for t in tick_ids)
                        outcome.attempted += len(durations)
                        outcome.failed += bad
                        if not traced:
                            handovers.append(probes.handovers)
                    quality.update(check_stage(stage, p, s, outcome, done))
                else:
                    stage_s[traced].append(times)
                    for name in ("dataset.csv", "model.txt", "stats.csv", "report.csv",
                                 "embedding.csv"):
                        outcome.op(outcome.fingerprint(name, sha256_file(p[name])),
                                   f"rep {done}: {name} differs from the first rep")
                    for name in ("metrics.csv", "confusion.csv"):
                        outcome.op(outcome.fingerprint(name, sha256_file(p["eval"] / name)),
                                   f"rep {done}: {name} differs from the first rep")
            done += 1
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / done > seconds:
                break
        if trace:
            table = SpanTable(probes)
            probes.write_spans(out_dir / "spans.npz")

    for label, value in sorted(outcome.fingerprints.items()):
        lines.append(f"fingerprint {label}: sha256={value}")
    lines += [f"check: {m}" for m in probes.failures + outcome.messages]
    untraced = np.concatenate(gen_ticks[False]) if gen_ticks[False] else np.zeros(0)
    np.save(out_dir / "ticks_ms.npy", untraced)
    figures, line = tick_figures(gen_ticks[False], n_ues)
    lines.append(f"passes: {len(stage_s[False])} untraced"
                 + (f", {len(stage_s[True])} traced" if trace else "") + f"; gen-dataset {line}")

    def stage_median(*names):
        return median([sum(t[n] for n in names) for t in stage_s[False]])

    figures.update({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "gen_dataset_s": stage_median("gen-dataset"),
        "train_s": stage_median("train"),
        "pipeline_s": stage_median("gen-dataset", "train", "eval", "tsne"),
        "test_accuracy": quality.get("accuracy", 0.0),
    })
    if not trace:
        return figures, outcome, lines

    traced_ms = np.concatenate(gen_ticks[True]) if gen_ticks[True] else np.zeros(0)
    layers = layer_metrics(table, probes, None, traced_ms, w.tsne_iterations)
    layers.update(dict.fromkeys(LOOP_ONLY, 0.0))
    layers.update({
        "ran_sim.handovers_per_tick": sum(handovers) / max(1, len(untraced)),
        "evaluation.silhouette": quality.get("silhouette", 0.0),
        "ric.false_detections_per_kuetick": quality.get("false_per_k_clean", 0.0),
    })
    for stage in ("gen-dataset", "train", "eval", "tsne"):
        layers[f"cli.{stage.replace('-', '_')}_self_s"] = \
            median(table.per_call(f"cli.{stage}", own=True)) / 1e3
    add_overhead(layers, untraced, traced_ms)
    return {**figures, **layers}, outcome, lines


def check_stage(stage: str, p: dict, s: dict, outcome: Outcome, rep: int) -> dict:
    """The acceptance checks that follow one CLI stage; returns quality figures."""
    if stage == "gen-dataset":
        samples = anomaly.read_dataset_csv(p["dataset.csv"])
        train_set, test_set = anomaly.split_dataset(samples, cli.DEFAULT_TRAIN_FRACTION, s["split"])
        sizes = (len(samples), len(train_set), len(test_set))
        outcome.op(sizes == (N_SAMPLES, *SPLIT_SIZES),
                   f"rep {rep}: dataset {sizes[0]} rows split {sizes[1]}/{sizes[2]}")
        return {}
    if stage == "eval":
        m = read_metrics_csv(p["eval"] / "metrics.csv")
        recalls = [m[f"recall_{anomaly.CLASS_NAMES[c]}"] for c in AnomalyClass]
        problems = quality_problems(m["accuracy"], recalls)
        outcome.op(not problems, f"rep {rep}: " + "; ".join(problems))
        return {"accuracy": m["accuracy"],
                "false_per_k_clean": false_positives_per_k_clean(p["eval"] / "confusion.csv")}
    if stage == "tsne":
        with open(p["embedding.csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        points = np.array([[float(r["x"]), float(r["y"])] for r in rows])
        score = evaluation.silhouette(points, [int(r["label"]) for r in rows])
        outcome.op(score >= MIN_SILHOUETTE, f"rep {rep}: silhouette {score:.4f} < {MIN_SILHOUETTE}")
        return {"silhouette": score}
    return {}


# -- per-layer metrics ---------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def add_overhead(layers: dict, untraced_ms: np.ndarray, traced_ms: np.ndarray) -> None:
    """Tracing overhead: traced minus untraced tick p50 of the same run."""
    layers["trace.tick_p50_ms"] = median(traced_ms)
    layers["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms)
    budget_ms = ran_sim.SimConfig().tick_ms
    layers["ric.tick_over_budget_ratio"] = \
        float((untraced_ms > budget_ms).mean()) if len(untraced_ms) else 0.0


def layer_metrics(table: SpanTable, probes: Probes,
                  ticks: np.ndarray | None, tick_ms: np.ndarray, tsne_iterations: int) -> dict:
    """Per-layer figures. Inside closed-loop ticks (``ticks`` given) a layer's
    time is summed per tick; elsewhere it is taken per call."""
    out: dict[str, float] = {}

    def ms(metric: str, values: np.ndarray) -> None:
        out[f"{metric}.p50"] = median(values)
        out[f"{metric}.tail"] = percentile(values, tail_pct(len(values)))

    def layer(*names: str, own: bool = False) -> np.ndarray:
        if ticks is not None:
            return table.per_tick(ticks, *names, own=own)
        return table.per_call(*names, own=own)

    ms("ran_sim.step_ms", layer("ran_sim.step"))
    ms("ran_sim.apply_allocation_ms", layer("ran_sim.apply_allocation"))
    ms("ran_sim.init_sim_ms", table.per_call("ran_sim.init_sim"))
    ms("twin_engine.twin_tick_ms", layer("twin_engine.twin_tick"))
    ms("twin_engine.allocate_prbs_ms", layer("twin_engine.allocate_prbs"))
    ms("twin_engine.predict_ms", layer("twin_engine.twin_tick", own=True))
    ms("anomaly.extract_features_ms", layer("anomaly.extract_features"))
    ms("anomaly.standardize_ms", layer("anomaly.standardize"))
    ms("mlp.forward_ms", layer("mlp.forward"))
    ms("mlp.predict_batch_ms", table.per_call("mlp.predict_batch"))
    ms("mlp.model_io_ms", table.per_call("mlp.save_model", "mlp.load_model"))
    ms("ric.on_indication_self_ms", layer("ric.on_indication", own=True))
    ms("ric.bus_ms", layer("ric.bus_publish", "ric.bus_pop"))
    ms("ric.allocation_weights_ms", layer("ric.allocation_weights"))
    ms("ric.apply_control_ms", layer("ric.apply_control"))
    ms("ric.write_episode_jsonl_ms", table.per_call("ric.write_episode_jsonl"))
    ms("evaluation.silhouette_ms", table.per_call("evaluation.silhouette"))
    ms("evaluation.confusion_ms", table.per_call("evaluation.confusion"))

    tsne = table.per_call("evaluation.tsne")
    probs = table.per_call("evaluation.conditional_gaussian_probs")
    out["evaluation.tsne_s"] = median(tsne) / 1e3
    out["evaluation.conditional_gaussian_probs_s"] = median(probs) / 1e3
    ms("evaluation.tsne_iter_ms", table.per_call("evaluation.tsne", own=True)
       / tsne_iterations)
    out["anomaly.generate_dataset_self_s"] = \
        median(table.per_call("anomaly.generate_dataset", own=True)) / 1e3
    gens = max(1, len(table.per_call("anomaly.generate_dataset")))
    out["anomaly.dataset_io_s"] = float(
        table.per_call("anomaly.write_dataset_csv", "anomaly.read_dataset_csv").sum()) / 1e3 / gens
    trains = table.per_call("mlp.train")
    out["mlp.train_s"] = median(trains) / 1e3
    out["mlp.train_steps"] = probes.counts.get("train_steps", 0) / max(1, len(trains))

    n_ticks = max(1, len(tick_ms))
    out["anomaly.extract_features_calls_per_tick"] = \
        probes.counts.get("anomaly.extract_features", 0) / n_ticks
    out["mlp.forward_calls_per_tick"] = probes.counts.get("mlp.forward", 0) / n_ticks
    out["twin_engine.prb_utilisation"] = (
        probes.counts.get("prbs_granted", 0) / max(1, probes.counts.get("prbs_available", 0))
    )

    if ticks is not None and len(ticks):
        top = table.per_tick(ticks, *table.name_ids, top_level_of="ric.closed_loop_run")
        ms("ric.closed_loop_self_ms", tick_ms - top)
        named = sum(
            table.per_tick(ticks, *names, top_level_of="ric.closed_loop_run").sum()
            for names in (("ran_sim.step",), ("ran_sim.apply_allocation",),
                          ("ric.on_indication",), ("ric.bus_publish", "ric.bus_pop"),
                          ("ric.allocation_weights",), ("ric.apply_control",))
        )
        out["trace.tick_accounted_ratio"] = float((named + (tick_ms - top).sum()) / tick_ms.sum())
    else:
        ms("ric.closed_loop_self_ms", np.zeros(0))
        out["trace.tick_accounted_ratio"] = 0.0
    out["trace.spans"] = len(table.dur_ms)
    return out

