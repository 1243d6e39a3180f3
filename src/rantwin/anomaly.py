"""Fault injection, feature extraction and labeled-dataset generation.

A fault corrupts exactly one measurement family in a UE's reports; labels
are taken from the fault that was active when the sample was emitted. The
classifier input is a fixed-order 8-value vector pairing real measurements
with the twin engine's outputs.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import radio_model, ran_sim, twin_engine
from .errors import ConfigurationError, DataFormatError, DomainError
from .radio_model import ChannelColumns
from .ran_sim import ReportBatch, SimConfig
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

# Ticks discarded at the start of dataset generation so achieved/predicted
# KPIs reflect a settled allocation loop.
WARMUP_TICKS = 20


class AnomalyClass(enum.IntEnum):
    NORMAL = 0
    RSRP_ERROR = 1
    RSRQ_ERROR = 2
    SINR_ERROR = 3


CLASS_NAMES = {
    AnomalyClass.NORMAL: "Normal",
    AnomalyClass.RSRP_ERROR: "RsrpError",
    AnomalyClass.RSRQ_ERROR: "RsrqError",
    AnomalyClass.SINR_ERROR: "SinrError",
}
N_CLASSES = len(AnomalyClass)


@dataclass(frozen=True)
class FaultSpec:
    cls: AnomalyClass
    offset_db: float
    jitter_db: float
    duration_ticks: int

    def __post_init__(self):
        if self.cls == AnomalyClass.NORMAL:
            raise DomainError("FaultSpec class must be one of the error classes")
        if self.jitter_db < 0:
            raise DomainError(f"jitter_db must be >= 0, got {self.jitter_db}")
        if self.duration_ticks < 1:
            raise DomainError(f"duration_ticks must be >= 1, got {self.duration_ticks}")


def default_fault_specs(duration_ticks: int = 50) -> dict[AnomalyClass, FaultSpec]:
    return {
        AnomalyClass.RSRP_ERROR: FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 3.0, duration_ticks),
        AnomalyClass.RSRQ_ERROR: FaultSpec(AnomalyClass.RSRQ_ERROR, -10.0, 2.0, duration_ticks),
        AnomalyClass.SINR_ERROR: FaultSpec(AnomalyClass.SINR_ERROR, -15.0, 3.0, duration_ticks),
    }


def inject_faults(
    channel: ChannelColumns, rows: list[int], specs: list[FaultSpec], rng: np.random.Generator
) -> ChannelColumns:
    """The channel as reported when row rows[k] carries the fault specs[k].

    Each fault corrupts exactly the measurement family its class owns. SINR
    corruption also recomputes the CQI, because the CQI report follows the
    (corrupted) SINR estimate. Draws exactly one jitter sample per fault, in
    the order given. `channel` is not written into: a column no fault hits
    is shared with it, and without faults it is returned as it is.
    """
    if not specs:
        return channel
    # A scalar uniform(-j, j) is the double of the array call's entry.
    delta = np.array(
        [spec.offset_db + rng.uniform(-spec.jitter_db, spec.jitter_db) for spec in specs]
    )
    faults_of = {}  # class -> indices into specs, in order
    for k, spec in enumerate(specs):
        faults_of.setdefault(spec.cls, []).append(k)

    def corrupted(klass, column):
        """A copy of `column`, the rows that `klass` hits, and their column
        values plus the delta."""
        k = faults_of[klass]
        hit = [rows[i] for i in k]
        return column.copy(), hit, column[hit] + delta[k]

    rsrp, rsrq, sinr, cqi = channel.rsrp_dbm, channel.rsrq_db, channel.sinr_db, channel.cqi
    if AnomalyClass.RSRP_ERROR in faults_of:
        rsrp, hit, value = corrupted(AnomalyClass.RSRP_ERROR, rsrp)
        rsrp[hit] = value
    if AnomalyClass.RSRQ_ERROR in faults_of:
        rsrq, hit, value = corrupted(AnomalyClass.RSRQ_ERROR, rsrq)
        rsrq[hit] = np.where(value < 0.0, value, 0.0)  # min(0.0, value)
    if AnomalyClass.SINR_ERROR in faults_of:
        sinr, hit, value = corrupted(AnomalyClass.SINR_ERROR, sinr)
        sinr[hit] = value
        cqi = cqi.copy()
        cqi[hit] = np.searchsorted(radio_model.CQI_SINR_THRESHOLDS_DB_ARRAY, value, side="right")
    return ChannelColumns(rsrp, channel.rssi_dbm, rsrq, sinr, cqi)


@dataclass(frozen=True)
class LabeledSample:
    features: np.ndarray
    label: AnomalyClass
    ue_id: int
    tick: int


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean and standard deviation, computed on training data only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_samples(cls, samples: list[LabeledSample]) -> "FeatureStats":
        x = np.stack([s.features for s in samples])
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
    """The 8 classifier inputs of report `row`: that row of `feature_matrix`."""
    return feature_matrix(reports, predicted_mbps, plan)[row]


def feature_matrix(
    reports: ReportBatch, predicted_mbps: np.ndarray, plan: AllocationPlan
) -> np.ndarray:
    """The 8 classifier inputs of every report, in FEATURE_NAMES order, as
    one (n, 8) matrix; `predicted_mbps` has one entry per report."""
    if len(predicted_mbps) != len(reports):
        raise DomainError(f"{len(reports)} reports but {len(predicted_mbps)} predictions")
    if plan.tick != reports.tick:
        raise DomainError(f"report tick {reports.tick} does not match plan tick {plan.tick}")
    serving = reports.serving_cell.tolist()
    total = np.fromiter(map(plan.cell_totals.get, serving, repeat(-1)), np.int64, len(serving))
    if (total < 0).any():
        raise DomainError(f"plan has no cell totals for cell {serving[int(np.argmax(total < 0))]}")
    ch = reports.channel
    columns = {
        "rsrp_dbm": ch.rsrp_dbm,
        "rsrq_db": ch.rsrq_db,
        "sinr_db": ch.sinr_db,
        "cqi": ch.cqi,
        "achieved_mbps": reports.achieved_mbps,
        "predicted_mbps": predicted_mbps,
        "grant_fraction": plan.grants_of(reports.ue_id) / total,
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
) -> list[LabeledSample]:
    """Run the simulator with the twin in the loop and harvest labeled samples.

    Faults are started at (tick, ue) slots drawn from the dataset generator so
    that a few UEs per error class are faulted at any time; candidate samples
    are pooled per class and subsampled to the exact largest-remainder class
    counts. Output is sorted by (tick, ue_id).
    """
    if n_samples <= 0:
        raise ConfigurationError("n_samples must be positive")
    if len(class_mix) != N_CLASSES:
        raise ConfigurationError(f"class_mix needs {N_CLASSES} fractions")
    if any(f < 0 for f in class_mix):
        raise ConfigurationError("class_mix fractions must be >= 0")
    if abs(sum(class_mix) - 1.0) > 1e-9:
        raise ConfigurationError(f"class_mix must sum to 1, got {sum(class_mix)}")

    quotas = dict(zip(AnomalyClass, largest_remainder_counts(n_samples, class_mix)))
    rng = np.random.default_rng(seed)
    state = ran_sim.init_sim(config)
    # Enough concurrently faulted UEs per class to fill error quotas quickly,
    # while most of the population stays clean.
    concurrent = max(1, config.n_ues // 12)

    # per class, one (ticks, features, ue_ids) block of rows per sampled tick
    pools: dict[AnomalyClass, list[tuple]] = {c: [] for c in AnomalyClass}
    n_pooled = dict.fromkeys(AnomalyClass, 0)
    error_classes = [c for c in AnomalyClass if c != AnomalyClass.NORMAL and quotas[c] > 0]

    for _ in range(config.n_ticks):
        sampling = state.tick + 1 > WARMUP_TICKS
        if sampling:
            active = dict.fromkeys(error_classes, 0)
            for fault in state.faults.values():
                if fault.spec.cls in active:
                    active[fault.spec.cls] += 1
            idle = sorted(set(range(config.n_ues)).difference(state.faults))
            for c in error_classes:
                while active[c] < concurrent and idle:
                    pick = int(rng.integers(0, len(idle)))
                    ue_id = idle.pop(pick)
                    ran_sim.set_fault(state, ue_id, fault_defaults[c])
                    active[c] += 1

        # every fault in the set is live on the next tick; row i is ue_id i
        labels = np.zeros(config.n_ues, dtype=np.int64)
        for ue_id, fault in state.faults.items():
            labels[ue_id] = fault.spec.cls
        state, reports, _ = ran_sim.step(state)
        plan, predicted_mbps, _ = twin_engine.twin_tick(reports, state.cells, config.link)
        if sampling:
            x = feature_matrix(reports, predicted_mbps, plan)
            for c in AnomalyClass:
                rows = np.flatnonzero(labels == c)[:4 * quotas[c] + 8 - n_pooled[c]]
                pools[c].append((np.full(len(rows), reports.tick), x[rows], reports.ue_id[rows]))
                n_pooled[c] += len(rows)
        ran_sim.apply_allocation(state, plan, config.link)
        if all(n_pooled[c] >= quotas[c] for c in AnomalyClass):
            break

    short = {CLASS_NAMES[c]: quotas[c] - n_pooled[c] for c in AnomalyClass if n_pooled[c] < quotas[c]}
    if short:
        raise ConfigurationError(
            f"simulation horizon too short to fill class quotas (missing {short}); "
            "increase n_ticks or n_ues"
        )

    selected: list[LabeledSample] = []
    for c in AnomalyClass:
        picks = np.sort(rng.permutation(n_pooled[c])[: quotas[c]]).tolist()
        # every sampled tick left a block, so no class's pool is an empty list
        ticks, features, ue_ids = (np.concatenate(column) for column in zip(*pools[c]))
        # each sample owns a copy of its row, not a view of the pool
        selected.extend(
            LabeledSample(features[i].copy(), c, int(ue_ids[i]), int(ticks[i])) for i in picks
        )
    selected.sort(key=lambda s: (s.tick, s.ue_id))
    return selected


def split_dataset(
    data: list[LabeledSample], train_fraction: float, seed: int
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Stratified split: per-class seeded shuffle, floor-sized train share,
    topped up by largest remainder so the train side totals
    floor(fraction * n). Classes too small to split (fewer than 2 samples,
    or a zero floor share) stay whole in the test side, with a warning.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if not data:
        raise DomainError("cannot split an empty dataset")

    by_class: dict[AnomalyClass, list[int]] = {}
    for i, s in enumerate(data):
        by_class.setdefault(s.label, []).append(i)

    rng = np.random.default_rng(seed)
    shuffled = {}
    base = {}
    for c in sorted(by_class):
        idx = by_class[c]
        shuffled[c] = [idx[j] for j in rng.permutation(len(idx))]
        base[c] = int(math.floor(train_fraction * len(idx)))

    target_train = int(math.floor(train_fraction * len(data)))
    deficit = target_train - sum(base.values())
    # Top up by largest fractional remainder among classes that can spare a
    # sample for each side of the split.
    eligible = [
        c
        for c in sorted(by_class)
        if len(by_class[c]) >= 2 and base[c] >= 1 and base[c] + 1 <= len(by_class[c]) - 1
    ]
    eligible.sort(key=lambda c: (-(train_fraction * len(by_class[c]) - base[c]), int(c)))
    for c in eligible[:max(0, deficit)]:
        base[c] += 1

    degenerate = [c for c in sorted(by_class) if base[c] == 0]
    if degenerate:
        log.warning(
            "degenerate split: class(es) %s contribute no training samples",
            [CLASS_NAMES[c] for c in degenerate],
        )

    train_idx: list[int] = []
    test_idx: list[int] = []
    for c in sorted(by_class):
        train_idx.extend(shuffled[c][: base[c]])
        test_idx.extend(shuffled[c][base[c]:])
    train_idx.sort()
    test_idx.sort()
    return [data[i] for i in train_idx], [data[i] for i in test_idx]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_dataset_csv(samples: list[LabeledSample], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DATASET_HEADER + "\n")
        for s in samples:
            fields = [_fmt(v) for v in s.features]
            fields += [str(int(s.label)), str(s.ue_id), str(s.tick)]
            fh.write(",".join(fields) + "\n")


def read_dataset_csv(path) -> list[LabeledSample]:
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != DATASET_HEADER:
            raise DataFormatError(f"line 1: bad dataset header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != N_FEATURES + 3:
                raise DataFormatError(
                    f"line {lineno}: expected {N_FEATURES + 3} fields, got {len(parts)}"
                )
            try:
                features = np.array([float(v) for v in parts[:N_FEATURES]], dtype=np.float64)
                label = int(parts[N_FEATURES])
                ue_id = int(parts[N_FEATURES + 1])
                tick = int(parts[N_FEATURES + 2])
            except ValueError as e:
                raise DataFormatError(f"line {lineno}: {e}") from e
            if not 0 <= label < N_CLASSES:
                raise DataFormatError(f"line {lineno}: label {label} outside 0..{N_CLASSES - 1}")
            if not np.isfinite(features).all():
                raise DataFormatError(f"line {lineno}: non-finite feature value")
            samples.append(LabeledSample(features, AnomalyClass(label), ue_id, tick))
    return samples


def write_stats_csv(stats: FeatureStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("feature,mean,std\n")
        for i, name in enumerate(FEATURE_NAMES):
            fh.write(f"{name},{_fmt(stats.mean[i])},{_fmt(stats.std[i])}\n")


def read_stats_csv(path) -> FeatureStats:
    mean = np.zeros(N_FEATURES)
    std = np.ones(N_FEATURES)
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "feature,mean,std":
            raise DataFormatError(f"line 1: bad stats header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3 or parts[0] not in FEATURE_NAMES:
                raise DataFormatError(f"line {lineno}: bad stats row {line!r}")
            i = FEATURE_NAMES.index(parts[0])
            try:
                mean[i] = float(parts[1])
                std[i] = float(parts[2])
            except ValueError as e:
                raise DataFormatError(f"line {lineno}: {e}") from e
            seen.add(parts[0])
    missing = [n for n in FEATURE_NAMES if n not in seen]
    if missing:
        raise DataFormatError(f"stats file missing feature rows: {missing}")
    if (std <= 0).any():
        raise DataFormatError("stats file contains non-positive std")
    return FeatureStats(mean=mean, std=std)
