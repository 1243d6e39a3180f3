"""The one type rule of config and schedule fields, `errors.check_fields`,
as every class that takes such a field applies it."""

import dataclasses
import json
import math
import re

import pytest

from rantwin import cli, ran_sim
from rantwin.errors import RantwinError
from rantwin.evaluation import TsneConfig
from rantwin.mlp import TrainConfig
from rantwin.radio_model import LinkBudgetParams
from rantwin.ran_sim import AnomalyClass, FaultSpec, MobilityConfig, SimConfig, TrafficConfig
from rantwin.ric import PrbBoost, ScheduledFault

SPEC = FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 3.0, 10)


def _get(obj, path):
    for key in path:
        obj = obj[key] if isinstance(key, int) else getattr(obj, key)
    return obj


def _put(obj, path, value):
    """`obj` with the leaf at `path` set to `value`, each dataclass on the
    way constructed anew, so that the one that checks the leaf does."""
    head, *rest = path
    if rest:
        value = _put(_get(obj, [head]), rest, value)
    if isinstance(head, int):
        return (*obj[:head], value, *obj[head + 1:])
    return dataclasses.replace(obj, **{head: value})


def _cases():
    """(id, checking object, path, name in the message) of every int and
    float field, nested ones of SimConfig included, and of one entry of its
    tuple field."""
    bases = [(cls(), "") for cls in (SimConfig, LinkBudgetParams, TrainConfig, TsneConfig)]
    bases += [(SPEC, ""), (ScheduledFault(5, 1, SPEC), ""), (PrbBoost(2.0, 100), "boost ")]
    for base, prefix in bases:
        for f in dataclasses.fields(base):
            value = getattr(base, f.name)
            if type(value) in (int, float):
                yield f"{type(base).__name__}.{f.name}", base, (f.name,), prefix + f.name
            elif isinstance(value, (MobilityConfig, TrafficConfig)):
                for g in dataclasses.fields(value):
                    path, name = (f.name, g.name), f"{f.name}.{g.name}"
                    if isinstance(getattr(value, g.name), tuple):
                        path, name = path + (1,), name + "[1]"
                    yield f"SimConfig.{name}", base, path, name


CASES = list(_cases())
INT_CASES = [c for c in CASES if type(_get(c[1], c[2])) is int]
FLOAT_CASES = [c for c in CASES if type(_get(c[1], c[2])) is float]


@pytest.mark.parametrize("case", INT_CASES, ids=[c[0] for c in INT_CASES])
@pytest.mark.parametrize("value", [True, 2.5, "1", math.nan, math.inf, -math.inf],
                         ids=["True", "2.5", "str", "nan", "inf", "-inf"])
def test_int_field_holds_an_integer_that_is_not_a_bool(case, value):
    _, base, path, name = case
    with pytest.raises(RantwinError, match=re.escape(f"{name} must be an integer")):
        _put(base, path, value)


@pytest.mark.parametrize("case", FLOAT_CASES, ids=[c[0] for c in FLOAT_CASES])
@pytest.mark.parametrize("value, says", [
    (True, "must be a number"), ("1", "must be a number"), (math.nan, "must be finite"),
    (math.inf, "must be finite"), (-math.inf, "must be finite"),
    (10**400, "is too large for a float"),
], ids=["True", "str", "nan", "inf", "-inf", "10**400"])
def test_float_field_holds_a_finite_real_that_is_not_a_bool(case, value, says):
    _, base, path, name = case
    with pytest.raises(RantwinError, match=re.escape(f"{name} {says}")):
        _put(base, path, value)


@pytest.mark.parametrize("case", FLOAT_CASES, ids=[c[0] for c in FLOAT_CASES])
def test_an_int_in_a_float_field_is_stored_as_a_float(case):
    _, base, path, _ = case
    value = math.ceil(_get(base, path))
    stored = _get(_put(base, path, value), path)
    assert type(stored) is float and stored == value


def test_json_paths_store_an_int_in_a_float_field_as_a_float(tmp_path):
    config = ran_sim.sim_config_from_dict({"area_m": 600, "link": {"noise_figure_db": 7},
                                           "traffic": {"mean_demand_mbps": [2, 4, 6, 8]}})
    assert [type(v) for v in (config.area_m, config.link.noise_figure_db,
                              *config.traffic.mean_demand_mbps)] == [float] * 6
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"faults": [{
        "onset_tick": 5, "ue_id": 1, "class": 1, "offset_db": -20, "jitter_db": 3,
        "duration_ticks": 10}]}))
    (fault,) = cli.load_schedule(schedule)
    assert type(fault.spec.offset_db) is float and type(fault.spec.jitter_db) is float
    assert fault.spec == SPEC
