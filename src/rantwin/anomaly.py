"""Feature extraction and labeled-dataset generation.

`ran_sim` owns the fault model; a sample is labeled with the fault that was
active when it was emitted. The classifier input is a fixed-order vector of
N_FEATURES values pairing real measurements with the twin engine's outputs.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import ran_sim, twin_engine
from .errors import ConfigurationError, DataFormatError, DomainError, names_file
from .ran_sim import AnomalyClass, FaultSpec, ReportBatch, SimConfig
from .twin_engine import AllocationPlan

log = logging.getLogger(__name__)

FEATURE_NAMES = (
    "rsrp_dbm",
    "rsrq_db",
    "sinr_db",
    "cqi",
    "achieved_mbps",
    "predicted_mbps",
    "grant_fraction",
    "priority",
)
N_FEATURES = len(FEATURE_NAMES)

DATASET_HEADER = ",".join((*FEATURE_NAMES, "label", "ue_id", "tick"))
STATS_HEADER = "feature,mean,std"

# A dataset is one np.recarray of this dtype, a row per labeled sample: its
# columns are `data.features` (n, N_FEATURES) and `data.label`, `data.ue_id`
# and `data.tick` (n,), and iterating it yields records with those fields.
DATASET_DTYPE = np.dtype([
    ("features", np.float64, (N_FEATURES,)),
    ("label", np.int64),
    ("ue_id", np.int64),
    ("tick", np.int64),
])

# Ticks discarded at the start of dataset generation so achieved/predicted
# KPIs reflect a settled allocation loop.
WARMUP_TICKS = 20

CLASS_NAMES = {
    AnomalyClass.NORMAL: "Normal",
    AnomalyClass.RSRP_ERROR: "RsrpError",
    AnomalyClass.RSRQ_ERROR: "RsrqError",
    AnomalyClass.SINR_ERROR: "SinrError",
}
N_CLASSES = len(AnomalyClass)


def default_fault_specs(duration_ticks: int = 50) -> dict[AnomalyClass, FaultSpec]:
    return {
        AnomalyClass.RSRP_ERROR: FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 3.0, duration_ticks),
        AnomalyClass.RSRQ_ERROR: FaultSpec(AnomalyClass.RSRQ_ERROR, -10.0, 2.0, duration_ticks),
        AnomalyClass.SINR_ERROR: FaultSpec(AnomalyClass.SINR_ERROR, -15.0, 3.0, duration_ticks),
    }


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean and standard deviation, computed on training data only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.recarray) -> "FeatureStats":
        if len(samples) == 0:
            raise DomainError("cannot compute feature stats of an empty dataset")
        x = samples.features
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        constant = std == 0.0
        if constant.any():
            names = [FEATURE_NAMES[i] for i in np.flatnonzero(constant)]
            log.warning("constant feature(s) %s: std replaced by 1", names)
            std = np.where(constant, 1.0, std)
        return cls(mean=mean, std=std)


def extract_features(
    reports: ReportBatch, predicted_mbps: np.ndarray, plan: AllocationPlan, row: int
) -> np.ndarray:
    """The N_FEATURES classifier inputs of report `row`: that row of `feature_matrix`."""
    return feature_matrix(reports, predicted_mbps, plan)[row]


def feature_matrix(
    reports: ReportBatch, predicted_mbps: np.ndarray, plan: AllocationPlan
) -> np.ndarray:
    """The N_FEATURES classifier inputs of every report, in FEATURE_NAMES order,
    as one (n, N_FEATURES) matrix; `predicted_mbps` has one entry per report."""
    if len(predicted_mbps) != len(reports):
        raise DomainError(f"{len(reports)} reports but {len(predicted_mbps)} predictions")
    if plan.tick != reports.tick:
        raise DomainError(f"report tick {reports.tick} does not match plan tick {plan.tick}")
    if len(plan.grant) != len(reports):
        raise DomainError(f"the plan of tick {plan.tick} was made for {len(plan.grant)} reports")
    ch = reports.channel
    columns = {
        "rsrp_dbm": ch.rsrp_dbm,
        "rsrq_db": ch.rsrq_db,
        "sinr_db": ch.sinr_db,
        "cqi": ch.cqi,
        "achieved_mbps": reports.achieved_mbps,
        "predicted_mbps": predicted_mbps,
        "grant_fraction": plan.grant / plan.cell_prbs,
        "priority": reports.priority,
    }
    x = np.empty((len(reports), N_FEATURES))
    for j, name in enumerate(FEATURE_NAMES):
        x[:, j] = columns[name]
    return x


def standardize(features: np.ndarray, stats: FeatureStats) -> np.ndarray:
    return (np.asarray(features, dtype=np.float64) - stats.mean) / stats.std


def largest_remainder_counts(total: int, fractions) -> list[int]:
    """Integer counts summing to `total`, apportioned by largest remainder.

    Remainder ties break toward the lowest index.
    """
    quotas = [total * f for f in fractions]
    counts = [int(math.floor(q)) for q in quotas]
    short = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def generate_dataset(
    config: SimConfig,
    n_samples: int,
    class_mix: tuple[float, float, float, float],
    fault_defaults: dict[AnomalyClass, FaultSpec],
    seed: int,
) -> np.recarray:
    """Run the simulator with the twin in the loop and harvest labeled samples.

    Faults are started at (tick, ue) slots drawn from the dataset generator so
    that a few UEs per error class are faulted at any time; each class's first
    4 * quota + 8 reports are subsampled to the exact largest-remainder class
    counts. Returns a DATASET_DTYPE record array sorted by (tick, ue_id).
    """
    if n_samples <= 0:
        raise ConfigurationError("n_samples must be positive")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if len(class_mix) != N_CLASSES:
        raise ConfigurationError(f"class_mix needs {N_CLASSES} fractions")
    if not all(math.isfinite(f) and f >= 0 for f in class_mix):
        raise ConfigurationError(f"class_mix fractions must be finite and >= 0, got {class_mix}")
    if abs(sum(class_mix) - 1.0) > 1e-9:
        raise ConfigurationError(f"class_mix must sum to 1, got {sum(class_mix)}")

    quotas = largest_remainder_counts(n_samples, class_mix)
    rng = np.random.default_rng(seed)
    state = ran_sim.init_sim(config)
    # Enough concurrently faulted UEs per class to fill error quotas quickly,
    # while most of the population stays clean.
    concurrent = max(1, config.n_ues // 12)
    error_classes = [c for c in AnomalyClass if c != AnomalyClass.NORMAL and quotas[c] > 0]

    # flat buffers, as read_dataset_csv's: per sampled tick, its tick, (U,), (U, N_FEATURES)
    ticks, labels, features = array("q"), array("q"), array("d")
    n_rows = [0] * N_CLASSES  # harvested rows per class
    for _ in range(config.n_ticks):
        sampling = state.tick + 1 > WARMUP_TICKS
        if sampling:
            # the class of each UE's fault live on the next tick; row i is ue_id i
            label = np.where(state.tick + 1 <= state.fault_until_tick, state.fault_class, 0)
            active = np.bincount(label, minlength=N_CLASSES).tolist()
            if any(active[c] < concurrent for c in error_classes):
                idle = (label == 0).nonzero()[0].tolist()
                for c in error_classes:
                    while active[c] < concurrent and idle:
                        ue_id = idle.pop(int(rng.integers(0, len(idle))))
                        ran_sim.set_fault(state, ue_id, fault_defaults[c])
                        label[ue_id] = c
                        active[c] += 1
                        active[AnomalyClass.NORMAL] -= 1

        state, reports, _ = ran_sim.step(state)
        plan, predicted_mbps = twin_engine.twin_tick(reports, state.cells, config.link)
        if sampling:
            ticks.append(reports.tick)
            labels.frombytes(label.tobytes())
            features.frombytes(feature_matrix(reports, predicted_mbps, plan).tobytes())
            n_rows = [n + a for n, a in zip(n_rows, active)]
        ran_sim.apply_allocation(state, plan, config.link)
        if all(n >= q for n, q in zip(n_rows, quotas)):
            break

    short = {CLASS_NAMES[c]: quotas[c] - n_rows[c] for c in AnomalyClass if n_rows[c] < quotas[c]}
    if short:
        raise ConfigurationError(
            f"simulation horizon too short to fill class quotas (missing {short}); "
            "increase n_ticks or n_ues"
        )

    # row r of the harvest is UE r % U's report of the (r // U)-th sampled tick
    labels = np.frombuffer(labels, np.int64)
    picked = []
    for c in AnomalyClass:
        pool = np.flatnonzero(labels == c)[:4 * quotas[c] + 8]
        picked.append(pool[rng.permutation(len(pool))[: quotas[c]]])
    rows = np.sort(np.concatenate(picked))
    tick_index, ue_id = np.divmod(rows, config.n_ues)
    return np.rec.fromarrays(
        [np.frombuffer(features).reshape(-1, N_FEATURES)[rows], labels[rows], ue_id,
         np.frombuffer(ticks, np.int64)[tick_index]],
        dtype=DATASET_DTYPE,
    )


def split_dataset(
    data: np.recarray, train_fraction: float, seed: int
) -> tuple[np.recarray, np.recarray]:
    """Stratified split: per-class seeded shuffle, floor-sized train share,
    topped up by largest remainder so the train side totals
    floor(fraction * n). Classes too small to split (fewer than 2 samples,
    or a zero floor share) stay whole in the test side, with a warning.
    Both sides keep the rows in dataset order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if seed < 0:
        raise DomainError(f"split seed must be >= 0, got {seed}")
    if len(data) == 0:
        raise DomainError("cannot split an empty dataset")

    # np.unique would import numpy.ma, about 1 MB, on its first call
    classes = np.flatnonzero(np.bincount(data.label)).tolist()
    rng = np.random.default_rng(seed)
    shuffled = {}
    base = {}
    for c in classes:
        idx = np.flatnonzero(data.label == c)
        shuffled[c] = idx[rng.permutation(len(idx))]
        base[c] = int(math.floor(train_fraction * len(idx)))

    target_train = int(math.floor(train_fraction * len(data)))
    deficit = target_train - sum(base.values())
    # Top up by largest fractional remainder among classes that can spare a
    # sample for each side of the split.
    eligible = [
        c
        for c in classes
        if len(shuffled[c]) >= 2 and base[c] >= 1 and base[c] + 1 <= len(shuffled[c]) - 1
    ]
    eligible.sort(key=lambda c: (-(train_fraction * len(shuffled[c]) - base[c]), c))
    for c in eligible[:max(0, deficit)]:
        base[c] += 1

    degenerate = [c for c in classes if base[c] == 0]
    if degenerate:
        log.warning(
            "degenerate split: class(es) %s contribute no training samples",
            [CLASS_NAMES[c] for c in degenerate],
        )

    train_idx = np.concatenate([shuffled[c][: base[c]] for c in classes])
    test_idx = np.concatenate([shuffled[c][base[c]:] for c in classes])
    return data[np.sort(train_idx)], data[np.sort(test_idx)]


def write_csv(path, header: str, rows) -> None:
    """Write a CSV artifact: the `header` line, then one line per row. A
    float field is written to 12 significant digits, None as an empty field
    and any other value with str; every line ends in "\n"."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fields = [format(v, ".12g") if isinstance(v, float) else "" if v is None else str(v)
                      for v in row]
            fh.write(",".join(fields) + "\n")


def _csv_lines(fh, header: str, what: str):
    """Check the first line of the open file `fh` against `header`, then
    yield (line number, fields) for each non-blank line after it."""
    first = fh.readline().strip()
    if first != header:
        raise DataFormatError(f"line 1: bad {what} header {first!r}")
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if line:
            yield lineno, line.split(",")


def write_dataset_csv(samples: np.recarray, path) -> None:
    rows = zip(samples.features.tolist(), samples.label.tolist(),
               samples.ue_id.tolist(), samples.tick.tolist())
    write_csv(path, DATASET_HEADER, ([*f, label, ue_id, tick] for f, label, ue_id, tick in rows))


@names_file("dataset")
def read_dataset_csv(path) -> np.recarray:
    # Each line's feature row and its (label, ue_id, tick), in flat buffers of
    # machine numbers: lists of Python numbers would grow the heap by about
    # 1 MB per 2500 lines, and the process's peak memory with it.
    features, codes = array("d"), array("q")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, parts in _csv_lines(fh, DATASET_HEADER, "dataset"):
            if len(parts) != N_FEATURES + 3:
                raise DataFormatError(
                    f"line {lineno}: expected {N_FEATURES + 3} fields, got {len(parts)}"
                )
            try:
                row = [float(v) for v in parts[:N_FEATURES]]
                label, ue_id, tick = map(int, parts[N_FEATURES:])
            except ValueError as e:
                raise DataFormatError(f"line {lineno}: {e}") from e
            if not 0 <= label < N_CLASSES:
                raise DataFormatError(f"line {lineno}: label {label} outside 0..{N_CLASSES - 1}")
            if not all(map(math.isfinite, row)):
                raise DataFormatError(f"line {lineno}: non-finite feature value")
            try:
                codes.extend((label, ue_id, tick))
            except OverflowError as e:
                raise DataFormatError(f"line {lineno}: ue_id or tick outside int64: {e}") from e
            features.extend(row)
    label_ue_tick = np.frombuffer(codes, np.int64).reshape(-1, 3).T
    return np.rec.fromarrays(
        [np.frombuffer(features).reshape(-1, N_FEATURES), *label_ue_tick], dtype=DATASET_DTYPE
    )


def write_stats_csv(stats: FeatureStats, path) -> None:
    write_csv(path, STATS_HEADER,
              zip(FEATURE_NAMES, stats.mean.tolist(), stats.std.tolist()))


@names_file("stats")
def read_stats_csv(path) -> FeatureStats:
    mean = np.zeros(N_FEATURES)
    std = np.ones(N_FEATURES)
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, parts in _csv_lines(fh, STATS_HEADER, "stats"):
            line = ",".join(parts)
            if len(parts) != 3 or parts[0] not in FEATURE_NAMES:
                raise DataFormatError(f"line {lineno}: bad stats row {line!r}")
            if parts[0] in seen:
                raise DataFormatError(f"line {lineno}: repeated stats row for {parts[0]!r}")
            i = FEATURE_NAMES.index(parts[0])
            try:
                mean[i] = float(parts[1])
                std[i] = float(parts[2])
            except ValueError as e:
                raise DataFormatError(f"line {lineno}: {e}") from e
            if not (math.isfinite(mean[i]) and math.isfinite(std[i])):
                raise DataFormatError(f"line {lineno}: non-finite stats value in {line!r}")
            seen.add(parts[0])
    missing = [n for n in FEATURE_NAMES if n not in seen]
    if missing:
        raise DataFormatError(f"missing feature rows: {missing}")
    if (std <= 0).any():
        raise DataFormatError("non-positive std")
    return FeatureStats(mean=mean, std=std)
