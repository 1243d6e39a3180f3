"""Near-real-time controller abstraction: an in-process ordered message bus,
the digital-twin application that pairs the simulation engine with anomaly
inference, and the remediation policy that closes the loop back into the RAN.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from . import anomaly, mlp, ran_sim, twin_engine
from .anomaly import N_CLASSES, FeatureStats
from .errors import ConfigurationError, DomainError, ProtocolError, check_fields
from .mlp import MlpModel
from .ran_sim import AnomalyClass, FaultSpec, ReportBatch, SimConfig, SimState
from .twin_engine import AllocationPlan

# _CLASS_BY_CODE[c] is AnomalyClass(c), without an enum call per flagged row
_CLASS_BY_CODE = tuple(AnomalyClass)
# The code of Normal as a plain int, which numpy compares faster than the enum
_NORMAL_CODE = int(AnomalyClass.NORMAL)


@dataclass(frozen=True)
class PrbBoost:
    """The UE's allocation weight times `factor` for `duration_ticks` ticks."""

    factor: Annotated[float, "> 1"]
    duration_ticks: Annotated[int, ">= 1"]

    def __post_init__(self):
        check_fields(self, DomainError, "boost ")


@dataclass(frozen=True)
class ForceHandover:
    target_cell: int


@dataclass(frozen=True)
class ControlAction:
    tick: int
    ue_id: int
    kind: PrbBoost | ForceHandover
    cause: AnomalyClass


class BusSubscription:
    def __init__(self):
        self._queue: deque[ReportBatch] = deque()

    def _push(self, reports: ReportBatch) -> None:
        self._queue.append(reports)

    def pop(self) -> ReportBatch:
        if not self._queue:
            raise ProtocolError("no indication pending")
        return self._queue.popleft()


class MessageBus:
    """Lossless in-process fan-out of each tick's ReportBatch, the
    indication, with strictly increasing report ticks."""

    def __init__(self):
        self._subscriptions: list[BusSubscription] = []
        self._last_tick: int | None = None

    def subscribe(self) -> BusSubscription:
        sub = BusSubscription()
        self._subscriptions.append(sub)
        return sub

    def publish(self, reports: ReportBatch) -> None:
        if self._last_tick is not None and reports.tick <= self._last_tick:
            raise ProtocolError(
                f"out-of-order publish: tick {reports.tick} after {self._last_tick}"
            )
        self._last_tick = reports.tick
        for sub in self._subscriptions:
            sub._push(reports)


@dataclass(frozen=True)
class RemediationPolicy:
    """Maps a confirmed anomaly class to a control action.

    Measurement-report errors (RSRP/RSRQ) steer the UE to its strongest
    neighbor; SINR errors, which starve the UE of PRBs through the corrupted
    CQI, get `boost`, a temporary allocation-weight boost.
    """

    handover_classes: tuple[AnomalyClass, ...] = (
        AnomalyClass.RSRP_ERROR,
        AnomalyClass.RSRQ_ERROR,
    )
    boost_classes: tuple[AnomalyClass, ...] = (AnomalyClass.SINR_ERROR,)
    boost: PrbBoost = PrbBoost(2.0, 100)

    def __post_init__(self):
        if AnomalyClass.NORMAL in self.handover_classes + self.boost_classes:
            raise ConfigurationError("Normal is not an anomaly to remediate")
        both = set(self.handover_classes) & set(self.boost_classes)
        if both:
            raise ConfigurationError(
                f"classes {sorted(int(c) for c in both)} are in both handover_classes and boost_classes"
            )

    def action_for(
        self, cause: AnomalyClass, rsrp_dbm: np.ndarray, serving_cell: int
    ) -> PrbBoost | ForceHandover | None:
        """The action for a UE with RSRP `rsrp_dbm` of every cell (entry j
        for cell_id j); the strongest neighbour is the first maximum, so ties
        go to the lowest cell_id."""
        if cause in self.boost_classes:
            return self.boost
        if cause in self.handover_classes:
            if len(rsrp_dbm) < 2:
                return None  # single-cell network: nowhere to steer
            neighbours = np.where(np.arange(len(rsrp_dbm)) == serving_cell, -np.inf, rsrp_dbm)
            return ForceHandover(target_cell=int(np.argmax(neighbours)))
        return None


@dataclass
class Detection:
    tick: int
    ue_id: int
    predicted: AnomalyClass
    probs: tuple[float, float, float, float]


class Detections:
    """Flagged rows as columns: `tick`, `ue_id` and the class `code` as int64
    buffers and `probs` as a float64 buffer of N_CLASSES values per row, 56 B
    a row. Iteration yields `Detection` rows; equality compares the columns
    exactly."""

    __slots__ = ("tick", "ue_id", "code", "probs")

    def __init__(self):
        self.tick = array("q")
        self.ue_id = array("q")
        self.code = array("q")
        self.probs = array("d")

    def append_tick(self, tick: int, ue_id: np.ndarray, code: np.ndarray, probs: np.ndarray) -> None:
        """Append one tick's rows: (k,) ue_ids and class codes and their
        (k, N_CLASSES) probabilities."""
        k = len(ue_id)
        if len(code) != k or probs.shape != (k, N_CLASSES):
            raise DomainError(
                f"{k} ue_ids need {k} class codes and ({k}, {N_CLASSES}) probabilities"
            )
        self.tick.extend(array("q", (tick,)) * k)
        self.ue_id.frombytes(np.ascontiguousarray(ue_id, dtype=np.int64).tobytes())
        self.code.frombytes(np.ascontiguousarray(code, dtype=np.int64).tobytes())
        self.probs.frombytes(np.ascontiguousarray(probs, dtype=np.float64).tobytes())

    def extend(self, other: Detections) -> None:
        self.tick.extend(other.tick)
        self.ue_id.extend(other.ue_id)
        self.code.extend(other.code)
        self.probs.extend(other.probs)

    def __len__(self) -> int:
        return len(self.tick)

    def __iter__(self):
        p = iter(self.probs)
        return map(
            Detection,
            self.tick,
            self.ue_id,
            map(_CLASS_BY_CODE.__getitem__, self.code),
            zip(*[p] * N_CLASSES),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        return (
            self.tick == other.tick
            and self.ue_id == other.ue_id
            and self.code == other.code
            and self.probs == other.probs
        )

    def __repr__(self) -> str:
        return f"<Detections of {len(self)} rows>"


# Consecutive ticks a non-Normal prediction must repeat to fire an action,
# and consecutive Normal ticks after which the UE may fire again.
CONFIRM_TICKS = 3
CLEAR_TICKS = 10


class DtXapp:
    """The DT application hosted in the controller.

    Per indication it runs the twin engine, classifies every UE from its
    standardized feature vector in one batched pass, and emits one control
    action per confirmed anomaly: a prediction must repeat for
    CONFIRM_TICKS consecutive ticks to fire, and the UE must read Normal
    for CLEAR_TICKS ticks to re-arm. Row i is ue_id i, and every indication
    must report as many UEs as the first: the debounce state is kept per row.
    """

    def __init__(
        self,
        model: MlpModel,
        stats: FeatureStats,
        cells,
        link_params,
        policy: RemediationPolicy | None = None,
    ):
        if model is None or stats is None:
            raise ConfigurationError("DtXapp requires a trained model and feature stats")
        self.model = model
        self.stats = stats
        self.cells = list(cells)
        self.link_params = link_params
        self.policy = policy if policy is not None else RemediationPolicy()
        # Debounce state per report row, set up by the first indication: the
        # class code the row read last (-1 before the first tick), how many
        # ticks in a row it has read that code, and whether it may fire.
        self._code: np.ndarray | None = None

    def on_indication(
        self, reports: ReportBatch, weights=None
    ) -> tuple[AllocationPlan, list[ControlAction], Detections]:
        n = len(reports)
        if self._code is None:
            self._code = np.full(n, -1)
            self._run = np.zeros(n, dtype=np.int64)
            self._armed = np.ones(n, dtype=bool)
        elif n != len(self._code):
            raise DomainError("an indication reports other UEs than the earlier ones")

        plan, predicted_mbps = twin_engine.twin_tick(reports, self.cells, self.link_params, weights)
        x = anomaly.standardize(anomaly.feature_matrix(reports, predicted_mbps, plan), self.stats)
        probs = mlp.forward_rows(self.model, x)
        code = np.argmax(probs, axis=1)
        normal = code == _NORMAL_CODE
        self._run = np.where(code == self._code, self._run + 1, 1)
        self._code = code
        self._armed |= normal & (self._run >= CLEAR_TICKS)
        fire = ~normal & self._armed & (self._run >= CONFIRM_TICKS)
        self._armed &= ~fire

        flagged = (~normal).nonzero()[0]
        detections = Detections()
        detections.append_tick(reports.tick, flagged, code[flagged], probs[flagged])
        actions: list[ControlAction] = []
        for i in fire.nonzero()[0].tolist():
            cause = _CLASS_BY_CODE[code[i]]
            kind = self.policy.action_for(cause, reports.rsrp_dbm[i], int(reports.serving_cell[i]))
            if kind is not None:
                actions.append(ControlAction(reports.tick, i, kind, cause))
        return plan, actions, detections


def apply_control(state: SimState, action: ControlAction) -> None:
    """Realize a control action on the RAN state, in place: a forced
    handover writes into its `serving_cell` column, a PRB boost into
    `boost_factor` and `boost_until_tick`."""
    row = action.ue_id
    if not 0 <= row < len(state.serving_cell):
        raise DomainError(f"unknown ue_id {row}")
    if isinstance(action.kind, ForceHandover):
        if not 0 <= action.kind.target_cell < len(state.cells):
            raise DomainError(f"unknown cell_id {action.kind.target_cell}")
        state.serving_cell[row] = action.kind.target_cell
    elif isinstance(action.kind, PrbBoost):
        state.boost_factor[row] = action.kind.factor
        state.boost_until_tick[row] = action.tick + action.kind.duration_ticks
    else:
        raise DomainError(f"unknown control kind {action.kind!r}")


def allocation_weights(state: SimState) -> np.ndarray:
    """Priority weight of every UE, row i for ue_id i, including any active
    control-plane boost."""
    boost = np.where(state.tick <= state.boost_until_tick, state.boost_factor, 1.0)
    return state.priority * boost


class ControlLoop:
    """The simulator, the bus and the DT xApp, stepped one controller tick at
    a time. `state` is the RAN state, which every tick advances in place; a
    caller injects faults into it between ticks."""

    def __init__(
        self,
        config: SimConfig,
        model: MlpModel,
        stats: FeatureStats,
        policy: RemediationPolicy | None = None,
    ):
        self.state = ran_sim.init_sim(config)
        self._link = config.link
        self._bus = MessageBus()
        self._subscription = self._bus.subscribe()
        self._xapp = DtXapp(model, stats, self.state.cells, self._link, policy)

    def tick(self) -> tuple[list[ControlAction], Detections]:
        """Step the RAN, publish its reports, run the xApp on them with each
        UE's allocation weight, then apply its grants and control actions."""
        state, reports, _ = ran_sim.step(self.state)
        self._bus.publish(reports)
        plan, actions, detections = self._xapp.on_indication(
            self._subscription.pop(), weights=allocation_weights(state)
        )
        ran_sim.apply_allocation(state, plan, self._link)
        for action in actions:
            apply_control(state, action)
        return actions, detections


@dataclass(frozen=True)
class ScheduledFault:
    onset_tick: int
    ue_id: int
    spec: FaultSpec

    def __post_init__(self):
        check_fields(self, ConfigurationError)


@dataclass(frozen=True)
class FaultEvent:
    fault_id: int
    ue_id: int
    cls: AnomalyClass
    onset_tick: int
    baseline_mbps: float = 0.0
    detect_tick: int | None = None
    action_tick: int | None = None
    restore_tick: int | None = None

    def detection_latency_ticks(self) -> int | None:
        return None if self.detect_tick is None else self.detect_tick - self.onset_tick

    def restoration_latency_ticks(self) -> int | None:
        if self.action_tick is None or self.restore_tick is None:
            return None
        return self.restore_tick - self.action_tick


@dataclass
class EpisodeLog:
    n_ticks: int
    detections: Detections = field(default_factory=Detections)
    actions: list[ControlAction] = field(default_factory=list)
    fault_events: list[FaultEvent] = field(default_factory=list)


# Ticks of pre-fault history averaged into the restoration baseline.
BASELINE_WINDOW_TICKS = 20
# Fraction of the baseline that counts as restored service.
RESTORE_FRACTION = 0.8


def fault_windows(fault_schedule: list[ScheduledFault], n_ticks: int) -> np.ndarray:
    """The (3, F) int64 rows `ue, first, last` of F scheduled faults: fault i
    owns ticks onset_i .. min(n_ticks, onset_i + duration_ticks_i - 1) of its
    UE. An onset outside 1..n_ticks, or two windows that overlap on one UE,
    raise ConfigurationError: ran_sim.set_fault replaces a UE's fault."""
    for f in fault_schedule:
        if not 1 <= f.onset_tick <= n_ticks:
            raise ConfigurationError(f"fault onset_tick {f.onset_tick} outside 1..{n_ticks}")
    rows = [(f.ue_id, f.onset_tick, min(n_ticks, f.onset_tick + f.spec.duration_ticks - 1))
            for f in fault_schedule]
    windows = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    ue, first, last = windows
    for i in range(len(ue)):
        clash = (ue[:i] == ue[i]) & (first[:i] <= last[i]) & (first[i] <= last[:i])
        if clash.any():
            j = clash.argmax()
            raise ConfigurationError(
                f"faults {j} and {i} overlap on UE {ue[i]}: ticks "
                f"{first[j]}..{last[j]} and {first[i]}..{last[i]}"
            )
    return windows


def score_faults(
    fault_schedule: list[ScheduledFault], actions: list[ControlAction], achieved: np.ndarray
) -> list[FaultEvent]:
    """Each scheduled fault's FaultEvent, from a run's control actions and
    `achieved`, the (n_ticks, K) achieved_mbps of the K distinct scheduled UEs
    in ue_id order. A fault is detected and acted on at the first action on
    its UE, of its class, in its window (fault_windows), and restored at the
    first later tick whose rate reaches RESTORE_FRACTION of its baseline: the
    mean rate of the BASELINE_WINDOW_TICKS ticks before onset, 0.0 at onset 1."""
    ue, first, last = fault_windows(fault_schedule, len(achieved))
    column = np.searchsorted(sorted(set(ue.tolist())), ue)
    events = []
    for i, fault in enumerate(fault_schedule):
        rates = achieved[:, column[i]]
        history = rates[max(0, first[i] - 1 - BASELINE_WINDOW_TICKS) : first[i] - 1]
        baseline = float(np.mean(history)) if len(history) else 0.0
        acted = next((a.tick for a in actions if a.ue_id == fault.ue_id
                      and a.cause == fault.spec.cls and first[i] <= a.tick <= last[i]), None)
        restored = None
        if acted is not None:
            ok = (rates[acted:] >= RESTORE_FRACTION * baseline).nonzero()[0]
            restored = acted + 1 + int(ok[0]) if len(ok) else None
        events.append(FaultEvent(i, fault.ue_id, fault.spec.cls, fault.onset_tick,
                                 baseline, acted, acted, restored))
    return events


def closed_loop_run(
    config: SimConfig,
    model: MlpModel,
    stats: FeatureStats,
    fault_schedule: list[ScheduledFault],
    policy: RemediationPolicy | None = None,
) -> EpisodeLog:
    """Run a ControlLoop for config.n_ticks ticks, injecting each scheduled
    fault into its state before the tick of its onset, and score the faults
    from the episode's actions and its scheduled UEs' achieved_mbps."""
    for fault in fault_schedule:
        if not 0 <= fault.ue_id < config.n_ues:
            raise ConfigurationError(f"fault ue_id {fault.ue_id} outside the UE population")
    ue, first, _ = fault_windows(fault_schedule, config.n_ticks)

    loop = ControlLoop(config, model, stats, policy)
    log = EpisodeLog(n_ticks=config.n_ticks)
    scheduled_ues = np.array(sorted(set(ue.tolist())), dtype=np.int64)
    achieved = np.empty((config.n_ticks, len(scheduled_ues)))
    for t in range(config.n_ticks):
        for i in (first == t + 1).nonzero()[0]:
            ran_sim.set_fault(loop.state, fault_schedule[i].ue_id, fault_schedule[i].spec)
        actions, detections = loop.tick()
        log.detections.extend(detections)
        log.actions.extend(actions)
        achieved[t] = loop.state.achieved_mbps[scheduled_ues]
    log.fault_events = score_faults(fault_schedule, log.actions, achieved)
    return log


def message_to_dict(message: ControlAction) -> dict:
    """The `control` record of a control action in `episode.jsonl`."""
    out = {
        "type": "control",
        "tick": message.tick,
        "ue_id": message.ue_id,
        "cause": int(message.cause),
    }
    if isinstance(message.kind, PrbBoost):
        out["kind"] = "PrbBoost"
        out["factor"] = message.kind.factor
        out["duration_ticks"] = message.kind.duration_ticks
    else:
        out["kind"] = "ForceHandover"
        out["target_cell"] = message.kind.target_cell
    return out


def write_episode_jsonl(log: EpisodeLog, path) -> None:
    """One JSON object per line: the detections, then the control actions,
    then the fault events. A non-finite probability is refused before
    anything is written, since JSON has no literal for it."""
    if not np.isfinite(np.frombuffer(log.detections.probs)).all():
        raise DomainError("a detection has a non-finite probability")
    with open(path, "w", encoding="utf-8") as fh:
        for det in log.detections:
            line = {"type": "detection", "tick": det.tick, "ue_id": det.ue_id,
                    "predicted": int(det.predicted), "probs": list(det.probs)}
            fh.write(json.dumps(line) + "\n")
        for action in log.actions:
            fh.write(json.dumps(message_to_dict(action)) + "\n")
        for event in log.fault_events:
            fh.write(
                json.dumps(
                    {
                        "type": "fault_event",
                        "fault_id": event.fault_id,
                        "ue_id": event.ue_id,
                        "class": int(event.cls),
                        "onset_tick": event.onset_tick,
                        "baseline_mbps": event.baseline_mbps,
                        "detect_tick": event.detect_tick,
                        "action_tick": event.action_tick,
                        "restore_tick": event.restore_tick,
                    }
                )
                + "\n"
            )


def write_episode_summary_csv(log: EpisodeLog, path) -> None:
    anomaly.write_csv(
        path, "fault_id,ue_id,class,onset_tick,detect_tick,action_tick,restore_tick",
        ((e.fault_id, e.ue_id, int(e.cls), e.onset_tick, e.detect_tick, e.action_tick,
          e.restore_tick) for e in log.fault_events),
    )
