"""Near-real-time controller abstraction: an in-process ordered message bus,
the digital-twin application that pairs the simulation engine with anomaly
inference, and the remediation policy that closes the loop back into the RAN.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import anomaly, mlp, ran_sim, twin_engine
from .anomaly import AnomalyClass, FaultSpec, FeatureStats
from .errors import ConfigurationError, DomainError, ProtocolError
from .mlp import MlpModel
from .ran_sim import ReportBatch, SimConfig, SimState
from .twin_engine import AllocationPlan

# _CLASS_BY_CODE[c] is AnomalyClass(c), without an enum call per flagged row
_CLASS_BY_CODE = tuple(AnomalyClass)
# The code of Normal as a plain int, which numpy compares faster than the enum
_NORMAL_CODE = int(AnomalyClass.NORMAL)


@dataclass(frozen=True)
class Indication:
    tick: int
    reports: ReportBatch

    def __post_init__(self):
        if self.reports.tick != self.tick:
            raise DomainError(
                f"report tick {self.reports.tick} does not match indication tick {self.tick}"
            )


@dataclass(frozen=True)
class PrbBoost:
    factor: float
    duration_ticks: int

    def __post_init__(self):
        if self.factor <= 1.0:
            raise DomainError(f"boost factor must be > 1, got {self.factor}")
        if self.duration_ticks < 1:
            raise DomainError(f"duration_ticks must be >= 1, got {self.duration_ticks}")


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
        self._queue: deque[Indication] = deque()

    def _push(self, indication: Indication) -> None:
        self._queue.append(indication)

    def pop(self) -> Indication:
        if not self._queue:
            raise ProtocolError("no indication pending")
        return self._queue.popleft()


class MessageBus:
    """Lossless in-process fan-out with strictly increasing publication ticks."""

    def __init__(self):
        self._subscriptions: list[BusSubscription] = []
        self._last_tick: int | None = None

    def subscribe(self) -> BusSubscription:
        sub = BusSubscription()
        self._subscriptions.append(sub)
        return sub

    def publish(self, indication: Indication) -> None:
        if self._last_tick is not None and indication.tick <= self._last_tick:
            raise ProtocolError(
                f"out-of-order publish: tick {indication.tick} after {self._last_tick}"
            )
        self._last_tick = indication.tick
        for sub in self._subscriptions:
            sub._push(indication)


@dataclass(frozen=True)
class RemediationPolicy:
    """Maps a confirmed anomaly class to a control action.

    Measurement-report errors (RSRP/RSRQ) steer the UE to its strongest
    neighbor; SINR errors, which starve the UE of PRBs through the corrupted
    CQI, get a temporary allocation-weight boost.
    """

    handover_classes: tuple[AnomalyClass, ...] = (
        AnomalyClass.RSRP_ERROR,
        AnomalyClass.RSRQ_ERROR,
    )
    boost_classes: tuple[AnomalyClass, ...] = (AnomalyClass.SINR_ERROR,)
    boost_factor: float = 2.0
    boost_duration_ticks: int = 100

    def action_for(
        self, cause: AnomalyClass, rsrp_dbm: np.ndarray, serving_cell: int
    ) -> PrbBoost | ForceHandover | None:
        """The action for a UE with RSRP `rsrp_dbm` of every cell (entry j
        for cell_id j); the strongest neighbour is the first maximum, so ties
        go to the lowest cell_id."""
        if cause in self.boost_classes:
            return PrbBoost(self.boost_factor, self.boost_duration_ticks)
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
    for CLEAR_TICKS ticks to re-arm. Every indication must report the same
    UEs in the same order, because the debounce state is kept per report row.
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
        # class of the row's non-Normal streak (-1 for none), the streak's
        # length, the length of its Normal streak, and whether it may fire.
        self._ue_id: np.ndarray | None = None

    def on_indication(
        self, indication: Indication, weights=None
    ) -> tuple[AllocationPlan, list[ControlAction], list[Detection]]:
        reports = indication.reports
        if self._ue_id is None:
            n = len(reports)
            self._ue_id = reports.ue_id.copy()
            self._streak_cls = np.full(n, -1)
            self._streak_len = np.zeros(n, dtype=np.int64)
            self._normal_streak = np.zeros(n, dtype=np.int64)
            self._armed = np.ones(n, dtype=bool)
        elif reports.ue_id.shape != self._ue_id.shape or not (reports.ue_id == self._ue_id).all():
            raise DomainError("an indication reports other UEs than the earlier ones")

        plan, predicted_mbps, _ = twin_engine.twin_tick(
            reports, self.cells, self.link_params, weights
        )
        x = anomaly.standardize(anomaly.feature_matrix(reports, predicted_mbps, plan), self.stats)
        probs = mlp.forward_rows(self.model, x)
        code = np.argmax(probs, axis=1)
        normal = code == _NORMAL_CODE
        self._normal_streak = np.where(normal, self._normal_streak + 1, 0)
        self._armed = self._armed | (normal & (self._normal_streak >= CLEAR_TICKS))
        self._streak_len = np.where(
            normal, 0, np.where(code == self._streak_cls, self._streak_len + 1, 1)
        )
        self._streak_cls = np.where(normal, -1, code)
        fire = ~normal & self._armed & (self._streak_len >= CONFIRM_TICKS)
        self._armed = self._armed & ~fire

        flagged = np.flatnonzero(~normal)
        detections = [
            Detection(indication.tick, ue_id, _CLASS_BY_CODE[c], tuple(p))
            for ue_id, c, p in zip(
                reports.ue_id[flagged].tolist(), code[flagged].tolist(), probs[flagged].tolist()
            )
        ]
        actions: list[ControlAction] = []
        for i in np.flatnonzero(fire).tolist():
            cause = _CLASS_BY_CODE[code[i]]
            kind = self.policy.action_for(cause, reports.rsrp_dbm[i], int(reports.serving_cell[i]))
            if kind is not None:
                actions.append(ControlAction(indication.tick, int(reports.ue_id[i]), kind, cause))
        return plan, actions, detections


def apply_control(state: SimState, action: ControlAction) -> SimState:
    """Realize a control action on the RAN state (mutates and returns it)."""
    row = state.ue_index(action.ue_id)
    if isinstance(action.kind, ForceHandover):
        state.cell(action.kind.target_cell)  # raises on unknown cell
        state.serving_cell[row] = action.kind.target_cell
    elif isinstance(action.kind, PrbBoost):
        state.boost_factor[row] = action.kind.factor
        state.boost_until_tick[row] = action.tick + action.kind.duration_ticks
    else:
        raise DomainError(f"unknown control kind {action.kind!r}")
    return state


def allocation_weights(state: SimState) -> np.ndarray:
    """Priority weight of every UE, row i for ue_id i, including any active
    control-plane boost."""
    boost = np.where(state.tick <= state.boost_until_tick, state.boost_factor, 1.0)
    return state.priority * boost


@dataclass(frozen=True)
class ScheduledFault:
    onset_tick: int
    ue_id: int
    spec: FaultSpec


@dataclass
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
    detections: list[Detection] = field(default_factory=list)
    actions: list[ControlAction] = field(default_factory=list)
    fault_events: list[FaultEvent] = field(default_factory=list)


# Ticks of pre-fault history averaged into the restoration baseline.
BASELINE_WINDOW_TICKS = 20
# Fraction of the baseline that counts as restored service.
RESTORE_FRACTION = 0.8


def closed_loop_run(
    config: SimConfig,
    model: MlpModel,
    stats: FeatureStats,
    fault_schedule: list[ScheduledFault],
    policy: RemediationPolicy | None = None,
) -> EpisodeLog:
    """Run simulator, bus and xApp in per-tick lockstep.

    Detection latency is measured from fault onset to the first confirmed
    detection of the matching class; restoration latency from the control
    action to achieved throughput reaching RESTORE_FRACTION of the pre-fault
    BASELINE_WINDOW_TICKS-tick average.
    """
    for fault in fault_schedule:
        if not 1 <= fault.onset_tick <= config.n_ticks:
            raise ConfigurationError(
                f"fault onset_tick {fault.onset_tick} outside 1..{config.n_ticks}"
            )
        if not 0 <= fault.ue_id < config.n_ues:
            raise ConfigurationError(f"fault ue_id {fault.ue_id} outside the UE population")

    state = ran_sim.init_sim(config)
    bus = MessageBus()
    subscription = bus.subscribe()
    xapp = DtXapp(model, stats, state.cells, config.link, policy)

    log = EpisodeLog(n_ticks=config.n_ticks)
    # (fault, event) pairs by onset tick and each UE's events, in fault_id order
    by_onset: dict[int, list[tuple[ScheduledFault, FaultEvent]]] = {}
    by_ue: dict[int, list[FaultEvent]] = {}
    for i, fault in enumerate(fault_schedule):
        event = FaultEvent(i, fault.ue_id, fault.spec.cls, fault.onset_tick)
        log.fault_events.append(event)
        by_onset.setdefault(fault.onset_tick, []).append((fault, event))
        by_ue.setdefault(fault.ue_id, []).append(event)
    # events with an action and no restoration yet
    awaiting_restore: list[FaultEvent] = []

    # achieved_mbps of the last BASELINE_WINDOW_TICKS ticks; apply_allocation
    # replaces the array each tick, so the stored arrays never change.
    achieved_history: deque[np.ndarray] = deque(maxlen=BASELINE_WINDOW_TICKS)

    for _ in range(config.n_ticks):
        for fault, event in by_onset.get(state.tick + 1, ()):
            ran_sim.set_fault(state, fault.ue_id, fault.spec)
            history = [achieved[fault.ue_id] for achieved in achieved_history]
            event.baseline_mbps = float(np.mean(history)) if history else 0.0

        state, reports, _ = ran_sim.step(state)
        bus.publish(Indication(tick=state.tick, reports=reports))
        indication = subscription.pop()
        plan, actions, detections = xapp.on_indication(
            indication, weights=allocation_weights(state)
        )
        ran_sim.apply_allocation(state, plan, config.link)
        for action in actions:
            apply_control(state, action)

        log.detections.extend(detections)
        log.actions.extend(actions)
        for action in actions:
            for event in by_ue.get(action.ue_id, ()):
                if (
                    event.detect_tick is None
                    and action.tick >= event.onset_tick
                    and action.cause == event.cls
                ):
                    event.detect_tick = action.tick
                    event.action_tick = action.tick
                    awaiting_restore.append(event)
                    break

        achieved_history.append(state.achieved_mbps)
        for event in list(awaiting_restore):
            achieved = state.achieved_mbps[event.ue_id]
            if state.tick > event.action_tick and achieved >= RESTORE_FRACTION * event.baseline_mbps:
                event.restore_tick = state.tick
                awaiting_restore.remove(event)

    return log


def message_to_dict(message) -> dict:
    """Wire-schema view of a bus message, one JSON object per message."""
    if isinstance(message, Indication):
        return {
            "type": "indication",
            "tick": message.tick,
            "reports": [
                ran_sim.report_to_dict(message.reports, i) for i in range(len(message.reports))
            ],
        }
    if isinstance(message, ControlAction):
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
    raise DomainError(f"not a bus message: {message!r}")


def write_episode_jsonl(log: EpisodeLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in log.detections:
            fh.write(
                json.dumps(
                    {
                        "type": "detection",
                        "tick": det.tick,
                        "ue_id": det.ue_id,
                        "predicted": int(det.predicted),
                        "probs": list(det.probs),
                    }
                )
                + "\n"
            )
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fault_id,ue_id,class,onset_tick,detect_tick,action_tick,restore_tick\n")
        for e in log.fault_events:
            fields = [
                str(e.fault_id),
                str(e.ue_id),
                str(int(e.cls)),
                str(e.onset_tick),
                "" if e.detect_tick is None else str(e.detect_tick),
                "" if e.action_tick is None else str(e.action_tick),
                "" if e.restore_tick is None else str(e.restore_tick),
            ]
            fh.write(",".join(fields) + "\n")
