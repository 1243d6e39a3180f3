"""The one type rule and the annotated bounds of config and schedule
fields, `errors.check_fields`, as every class that takes such a field
applies them."""

import dataclasses
import json
import math
import re

import pytest

from rantwin import cli, ran_sim
from rantwin.errors import ConfigurationError, DomainError, RantwinError
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


BELOW_0, ABOVE_1 = math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)
SIM, LINK, BOOST = SimConfig(), LinkBudgetParams(), PrbBoost(2.0, 100)
TRAIN, TSNE = TrainConfig(), TsneConfig()

# Every bounded field, by hand: (checking object, field path, the nearest value
# outside its bound, error class, exact message, the bound's value if the
# bound is inclusive, else None).
BOUNDED = [
    (SIM, "n_cells", 0, ConfigurationError, "n_cells must be >= 1, got 0", 1),
    (SIM, "n_ues", 0, ConfigurationError, "n_ues must be >= 1, got 0", 1),
    (SIM, "area_m", 0.0, ConfigurationError, "area_m must be > 0, got 0.0", None),
    (SIM, "tick_ms", 0.0, ConfigurationError, "tick_ms must be > 0, got 0.0", None),
    (SIM, "n_ticks", 0, ConfigurationError, "n_ticks must be >= 1, got 0", 1),
    (SIM, "seed", -1, ConfigurationError, "seed must be >= 0, got -1", 0),
    (SIM, "total_prbs", 0, ConfigurationError, "total_prbs must be >= 1, got 0", 1),
    (SIM, "hysteresis_db", BELOW_0, ConfigurationError,
     "hysteresis_db must be >= 0, got -5e-324", 0.0),
    (SIM, "shadowing_rho", BELOW_0, ConfigurationError,
     "shadowing_rho must be >= 0, got -5e-324", 0.0),
    (SIM, "shadowing_rho", ABOVE_1, ConfigurationError,
     "shadowing_rho must be <= 1, got 1.0000000000000002", 1.0),
    (SIM, "mobility.min_speed_mps", BELOW_0, ConfigurationError,
     "mobility.min_speed_mps must be >= 0, got -5e-324", 0.0),
    (LINK, "ref_distance_m", 0.0, DomainError, "ref_distance_m must be > 0, got 0.0", None),
    (LINK, "path_loss_exponent", 0.0, DomainError, "path_loss_exponent must be > 0, got 0.0", None),
    (LINK, "shadowing_sigma_db", BELOW_0, DomainError,
     "shadowing_sigma_db must be >= 0, got -5e-324", 0.0),
    (LINK, "prb_bandwidth_hz", 0.0, DomainError, "prb_bandwidth_hz must be > 0, got 0.0", None),
    (LINK, "noise_figure_db", BELOW_0, DomainError, "noise_figure_db must be >= 0, got -5e-324", 0.0),
    (SPEC, "jitter_db", BELOW_0, DomainError, "jitter_db must be >= 0, got -5e-324", 0.0),
    (SPEC, "duration_ticks", 0, DomainError, "duration_ticks must be >= 1, got 0", 1),
    (BOOST, "factor", 1.0, DomainError, "boost factor must be > 1, got 1.0", None),
    (BOOST, "duration_ticks", 0, DomainError, "boost duration_ticks must be >= 1, got 0", 1),
    (TRAIN, "epochs", 0, ConfigurationError, "epochs must be >= 1, got 0", 1),
    (TRAIN, "batch_size", 0, ConfigurationError, "batch_size must be >= 1, got 0", 1),
    (TRAIN, "learning_rate", 0.0, ConfigurationError, "learning_rate must be > 0, got 0.0", None),
    (TRAIN, "seed", -1, ConfigurationError, "seed must be >= 0, got -1", 0),
    (TSNE, "perplexity", 1.0, ConfigurationError, "perplexity must be > 1, got 1.0", None),
    (TSNE, "iterations", 0, ConfigurationError, "iterations must be >= 1, got 0", 1),
    (TSNE, "learning_rate", 0.0, ConfigurationError, "learning_rate must be > 0, got 0.0", None),
    (TSNE, "seed", -1, ConfigurationError, "seed must be >= 0, got -1", 0),
]
INCLUSIVE = [row for row in BOUNDED if row[5] is not None]
# The rows a JSON config holds, as (key path under config, row)
JSON_BOUNDED = [(("link." if row[0] is LINK else "") + row[1], row)
                for row in BOUNDED if row[0] is SIM or row[0] is LINK]


def _row_id(row):
    return f"{type(row[0]).__name__}.{row[1]} {row[4].partition(' must be ')[2].split(',')[0]}"


@pytest.mark.parametrize("row", BOUNDED, ids=_row_id)
def test_the_nearest_value_outside_a_bound_is_refused(row):
    base, path, outside, error, message, _ = row
    with pytest.raises(error) as refused:
        _put(base, path.split("."), outside)
    assert type(refused.value) is error and str(refused.value) == message


@pytest.mark.parametrize("row", INCLUSIVE, ids=_row_id)
def test_an_inclusive_bound_is_accepted(row):
    base, path, _, _, _, edge = row
    assert _get(_put(base, path.split("."), edge), path.split(".")) == edge


@pytest.mark.parametrize("key, row", JSON_BOUNDED, ids=[key for key, _ in JSON_BOUNDED])
def test_a_json_config_names_the_key_path_of_a_bound(key, row):
    body = row[2]
    for name in reversed(key.split(".")):
        body = {name: body}
    with pytest.raises(ConfigurationError) as refused:
        ran_sim.sim_config_from_dict(body)
    assert str(refused.value) == f"config.{key.removesuffix(row[1])}{row[4]}"


def test_an_int_outside_a_float_fields_bound_is_reported_as_a_float(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"link": {"ref_distance_m": 0}}))
    assert cli.main(["gen-dataset", "--config", str(config), "--out", str(tmp_path / "d.csv"),
                     "--n-samples", "40"]) == 2
    assert "config.link.ref_distance_m must be > 0, got 0.0" in capsys.readouterr().err
