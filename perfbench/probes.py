"""Timing probes around rantwin's public entry points.

The benchmark leaves ``src/`` untouched: for the length of a run it replaces
module functions and class methods with thin wrappers and puts the originals
back afterwards. Two kinds of wrapper exist:

* The tick clock and the per-tick checks, installed in every run. A *tick*
  is the interval between two successive entries into ``ran_sim.step`` while
  the workload's tick driver (``ric.closed_loop_run`` or
  ``anomaly.generate_dataset``) runs; the last tick closes when the driver
  returns.
* Spans, installed only in traced runs. A span records its name, start, end,
  parent span and the tick it belongs to (-1 outside ticks). Spans are kept
  in compact arrays in memory and written out once at the end.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from rantwin import anomaly, evaluation, mlp, ran_sim, ric, twin_engine

now = time.perf_counter_ns

# Every entry point a traced run times: (owner, attribute, span name).
TRACED = (
    (ran_sim, "step", "ran_sim.step"),
    (ran_sim, "apply_allocation", "ran_sim.apply_allocation"),
    (ran_sim, "init_sim", "ran_sim.init_sim"),
    (twin_engine, "twin_tick", "twin_engine.twin_tick"),
    (twin_engine, "allocate_prbs", "twin_engine.allocate_prbs"),
    (anomaly, "extract_features", "anomaly.extract_features"),
    (anomaly, "standardize", "anomaly.standardize"),
    (anomaly, "generate_dataset", "anomaly.generate_dataset"),
    (anomaly, "write_dataset_csv", "anomaly.write_dataset_csv"),
    (anomaly, "read_dataset_csv", "anomaly.read_dataset_csv"),
    (mlp, "forward", "mlp.forward"),
    (mlp, "train", "mlp.train"),
    (mlp, "predict_batch", "mlp.predict_batch"),
    (mlp, "save_model", "mlp.save_model"),
    (mlp, "load_model", "mlp.load_model"),
    (ric.DtXapp, "on_indication", "ric.on_indication"),
    (ric.MessageBus, "publish", "ric.bus_publish"),
    (ric.BusSubscription, "pop", "ric.bus_pop"),
    (ric, "apply_control", "ric.apply_control"),
    (ric, "allocation_weights", "ric.allocation_weights"),
    (ric, "write_episode_jsonl", "ric.write_episode_jsonl"),
    (ric, "closed_loop_run", "ric.closed_loop_run"),
    (evaluation, "tsne", "evaluation.tsne"),
    (evaluation, "conditional_gaussian_probs", "evaluation.conditional_gaussian_probs"),
    (evaluation, "silhouette", "evaluation.silhouette"),
    (evaluation, "confusion", "evaluation.confusion"),
)

# Entry points whose wrappers carry the per-tick checks, traced or not.
CHECKED = ("ran_sim.step", "ran_sim.apply_allocation", "ric.on_indication")
# Tolerance on the sum of a detection's class probabilities.
PROBS_TOL = 1e-9


class Probes:
    """Installs the wrappers on entry and restores the originals on exit.

    ``driver`` names the function whose calls are cut into ticks. With
    ``traced`` false only the tick clock and the checks are installed; with
    it true every entry in TRACED records spans while ``tracing`` is set.
    """

    def __init__(self, driver: str, traced: bool):
        self.driver = driver
        self.traced = traced
        self.tracing = False
        self.tick = -1
        self.n_ticks = 0
        self.in_driver = False
        self.tick_starts: list[int] = []
        self.driver_end = 0
        self.handovers = 0
        self.ticks_failed: set[int] = set()
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        # span columns
        self.names: list[str] = []
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_tick = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # forced handovers awaiting the next reselection: ue_id -> old cell
        self._forced: dict[int, int] = {}

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Probes":
        hooks = {
            "ran_sim.step": (self._before_step, self._after_step),
            "ran_sim.apply_allocation": (None, self._after_apply_allocation),
            "ric.on_indication": (None, self._after_on_indication),
            "ric.apply_control": (self._before_apply_control, None),
            "mlp.train": (None, self._after_train),
            "mlp.forward": (self._count("mlp.forward"), None),
            "anomaly.extract_features": (self._count("anomaly.extract_features"), None),
            "twin_engine.twin_tick": (None, self._after_twin_tick),
        }
        for owner, attr, name in TRACED:
            # Untraced runs carry only the tick clock and the per-tick checks.
            if self.traced or name in (self.driver, *CHECKED):
                self._install(owner, attr, name, *hooks.get(name, (None, None)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _install(self, owner, attr, name, before, after) -> None:
        fn = getattr(owner, attr)
        is_driver = name == self.driver
        self._saved.append((owner, attr, fn))
        name_id = self._name_id(name)
        probes = self

        def wrapper(*args, **kwargs):
            if is_driver:
                probes._enter_driver()
            if before is not None:
                before(args)
            try:
                out = probes._timed(name_id, fn, args, kwargs)
            finally:
                if is_driver:
                    probes._leave_driver()
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _timed(self, name_id: int, fn, args, kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        stack = self._stack
        i = len(self.s_start)
        self.s_name.append(name_id)
        self.s_parent.append(stack[-1] if stack else -1)
        self.s_tick.append(self.tick)
        self.s_end.append(0)
        stack.append(i)
        self.s_start.append(now())
        try:
            return fn(*args, **kwargs)
        finally:
            self.s_end[i] = now()
            stack.pop()

    def call(self, name: str, fn, *args):
        """Call ``fn`` inside a span of the benchmark's own, such as a CLI stage."""
        return self._timed(self._name_id(name), fn, args, {})

    # -- tick clock ----------------------------------------------------------

    def _enter_driver(self) -> None:
        self.in_driver = True
        self.tick_starts = []
        self.handovers = 0
        self._forced.clear()

    def _leave_driver(self) -> None:
        self.driver_end = now()
        self.in_driver = False
        self.tick = -1

    def tick_durations_ms(self) -> np.ndarray:
        """Durations of the ticks of the last driver call."""
        edges = np.array(self.tick_starts + [self.driver_end], dtype=np.int64)
        return np.diff(edges) / 1e6

    def _before_step(self, args) -> None:
        if self.in_driver:
            self.tick = self.n_ticks
            self.n_ticks += 1
            self.tick_starts.append(now())

    # -- per-tick checks and counters ----------------------------------------

    def fail(self, message: str) -> None:
        if self.tick >= 0:
            self.ticks_failed.add(self.tick)
        if len(self.failures) < 20:
            self.failures.append(message)

    def _count(self, name: str):
        counts = self.counts

        def before(args) -> None:
            if self.tracing and self.tick >= 0:
                counts[name] = counts.get(name, 0) + 1

        return before

    def _after_step(self, args, out) -> None:
        new_state, reports, kpis = out
        if not self.in_driver:
            return
        if len(reports) != new_state.config.n_ues:
            self.fail(f"tick {new_state.tick}: {len(reports)} reports for {new_state.config.n_ues} UEs")
        self.handovers += kpis.n_handovers
        if self.tracing and self._forced:
            for ue_id, old_cell in self._forced.items():
                if new_state.ues[ue_id].serving_cell == old_cell:
                    self.counts["handover_reverts"] = self.counts.get("handover_reverts", 0) + 1
            self._forced.clear()

    def _after_apply_allocation(self, args, out) -> None:
        if not self.in_driver:
            return
        state, plan = args[0], args[1]
        totals = {c.cell_id: c.total_prbs for c in state.cells}
        used = dict.fromkeys(totals, 0)
        for ue in state.ues:
            grant = plan.grants.get(ue.ue_id, 0)
            if grant < 0:
                self.fail(f"tick {state.tick}: negative grant {grant} for ue {ue.ue_id}")
            used[ue.serving_cell] += grant
        for cell_id, total in totals.items():
            if used[cell_id] > total:
                self.fail(f"tick {state.tick}: cell {cell_id} granted {used[cell_id]} of {total} PRBs")

    def _after_on_indication(self, args, out) -> None:
        for det in out[2]:
            if abs(sum(det.probs) - 1.0) > PROBS_TOL:
                self.fail(f"tick {det.tick}: ue {det.ue_id} probabilities sum to {sum(det.probs)}")

    def _before_apply_control(self, args) -> None:
        state, action = args
        if self.tracing and isinstance(action.kind, ric.ForceHandover):
            self._forced[action.ue_id] = state.ues[action.ue_id].serving_cell
            self.counts["forced_handovers"] = self.counts.get("forced_handovers", 0) + 1

    def _after_twin_tick(self, args, out) -> None:
        if self.tracing and self.tick >= 0:
            plan = out[0]
            self.counts["prbs_granted"] = self.counts.get("prbs_granted", 0) + sum(plan.grants.values())
            self.counts["prbs_available"] = (
                self.counts.get("prbs_available", 0) + sum(plan.cell_totals.values())
            )

    def _after_train(self, args, out) -> None:
        if self.tracing:
            n, config = len(args[1]), args[3]
            steps = config.epochs * -(-n // config.batch_size)
            self.counts["train_steps"] = self.counts.get("train_steps", 0) + steps

    # -- span export -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32).copy(),
            "tick": np.frombuffer(self.s_tick, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.s_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.s_end, dtype=np.int64).copy(),
        }

    def write_spans(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


class SpanTable:
    """Durations, self times and per-tick sums of recorded spans."""

    def __init__(self, probes: Probes):
        cols = probes.spans()
        self.name_ids = {n: i for i, n in enumerate(probes.names)}
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.tick = cols["tick"]
        self.dur_ms = (cols["end_ns"] - cols["start_ns"]) / 1e6
        children = np.zeros(len(self.dur_ms))
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.dur_ms[has_parent])
        self.self_ms = self.dur_ms - children

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.name_ids[n] for n in names if n in self.name_ids]
        return np.isin(self.name, ids)

    def per_call(self, *names: str, own: bool = False) -> np.ndarray:
        values = self.self_ms if own else self.dur_ms
        return values[self.mask(*names)]

    def per_tick(self, ticks: np.ndarray, *names: str, own: bool = False,
                 top_level_of: str | None = None) -> np.ndarray:
        """Sum of the named spans in each of ``ticks`` (zeros included)."""
        m = self.mask(*names) & np.isin(self.tick, ticks)
        if top_level_of is not None:
            m &= self.mask(top_level_of)[np.maximum(self.parent, 0)] & (self.parent >= 0)
        values = self.self_ms if own else self.dur_ms
        index = np.searchsorted(ticks, self.tick[m])
        return np.bincount(index, weights=values[m], minlength=len(ticks))
