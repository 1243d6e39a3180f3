"""The link model, over numpy columns: path loss, shadowing, RSRP/RSSI/RSRQ/
SINR and the SINR->CQI / CQI->spectral-efficiency tables.

Everything here is a pure function of its arguments; randomness enters only
through explicitly passed generators. Powers are per resource element (RE)
unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Annotated

import numpy as np

from .errors import DomainError, check_fields

# 15 kHz subcarrier spacing: 12 REs per 180 kHz PRB.
RES_PER_PRB = 12

# CQI decision thresholds, dB. Entry k-1 is the inclusive lower SINR bound of
# CQI k (k = 1..15): -6.7 + 1.9*(k-1). Below the first entry the CQI is 0.
CQI_SINR_THRESHOLDS_DB = tuple(-6.7 + 1.9 * k for k in range(15))

# Spectral-efficiency cap per CQI index 0..15, bits/s/Hz (4-bit CQI ladder).
CQI_EFFICIENCY_BPS_HZ = (
    0.0, 0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
    1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
)

# The two tables as read-only arrays, for the column functions.
CQI_SINR_THRESHOLDS_DB_ARRAY = np.array(CQI_SINR_THRESHOLDS_DB)
CQI_EFFICIENCY_BPS_HZ_ARRAY = np.array(CQI_EFFICIENCY_BPS_HZ)
CQI_SINR_THRESHOLDS_DB_ARRAY.flags.writeable = False
CQI_EFFICIENCY_BPS_HZ_ARRAY.flags.writeable = False


@dataclass(frozen=True)
class LinkBudgetParams:
    """Parameters of the log-distance channel and the receiver noise budget."""

    ref_path_loss_db: float = 36.6
    ref_distance_m: Annotated[float, "> 0"] = 1.0
    path_loss_exponent: Annotated[float, "> 0"] = 3.5
    shadowing_sigma_db: Annotated[float, ">= 0"] = 8.0
    noise_density_dbm_hz: float = -174.0
    prb_bandwidth_hz: Annotated[float, "> 0"] = 180e3
    noise_figure_db: Annotated[float, ">= 0"] = 7.0

    def __post_init__(self):
        check_fields(self, DomainError)


def fields_equal(a, b) -> bool:
    """Equality of dataclasses whose fields are arrays, each compared whole."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    )


@dataclass(frozen=True, eq=False)
class ChannelColumns:
    """The channel of many UEs, one (U,) array per field: RSRP/RSSI in dBm,
    RSRQ/SINR in dB, CQI 0..15. A plain container: `ran_sim.ReportBatch`
    checks the reported channel. Nothing writes into the arrays."""

    __eq__ = fields_equal

    rsrp_dbm: np.ndarray
    rssi_dbm: np.ndarray
    rsrq_db: np.ndarray
    sinr_db: np.ndarray
    cqi: np.ndarray  # int


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def path_loss_db(distance_m: np.ndarray, link: LinkBudgetParams) -> np.ndarray:
    """Log-distance path loss of every distance; flat inside the reference
    distance."""
    d = np.maximum(distance_m, max(1e-6, link.ref_distance_m))
    return link.ref_path_loss_db + 10.0 * link.path_loss_exponent * np.log10(
        d / link.ref_distance_m
    )


def rsrp_matrix(
    position: np.ndarray,
    cell_xy: np.ndarray,
    cell_tx_dbm: np.ndarray,
    shadowing_db: np.ndarray,
    link: LinkBudgetParams,
) -> np.ndarray:
    """(U, C) RSRP in dBm of the (U, 2) positions from the (C, 2) cells:
    transmit power per RE, less path loss, plus the (U, C) shadowing, which
    raises the RSRP where positive."""
    dx = position[:, 0:1] - cell_xy[:, 0]
    dy = position[:, 1:2] - cell_xy[:, 1]
    return cell_tx_dbm - path_loss_db(np.hypot(dx, dy), link) + shadowing_db


def _interferer_sums(
    mw: np.ndarray, serving: np.ndarray, noise_mw: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per UE, the power of every cell but the serving one in the (U, C)
    `mw`, summed from 0.0 and from `noise_mw`.

    The cells are added in cell order, with 0.0 for the serving cell, as
    a per-UE loop over the cells adds them. An axis-0 reduce of C-contiguous (C, U) rows adds
    them in that order while the UE axis is the inner loop; one spare
    column keeps it so for a single UE, whose lone column numpy would sum
    pairwise.
    """
    n_ues = len(serving)
    others = np.zeros((mw.shape[1], n_ues + 1))
    others[:, :n_ues] = mw.T
    others[serving, np.arange(n_ues)] = 0.0
    return (np.add.reduce(others, axis=0)[:n_ues],
            np.add.reduce(others, axis=0, initial=noise_mw)[:n_ues])


def sample_channel(rsrp_dbm: np.ndarray, serving: np.ndarray, noise_mw: float) -> ChannelColumns:
    """The channel of every UE from its (U, C) RSRP row and serving cell:
    SINR over noise + interferers, RSSI over serving + interferers + noise,
    RSRQ as serving over that total. All powers are per RE, so the PRB
    count of the measurement bandwidth takes no part."""
    rows = np.arange(len(serving))
    mw = np.power(10.0, rsrp_dbm / 10.0)
    serving_mw = mw[rows, serving]
    interference, noise_and_interference = _interferer_sums(mw, serving, noise_mw)
    total_mw = serving_mw + interference + noise_mw
    sinr = 10.0 * np.log10(serving_mw / noise_and_interference)
    rssi = 10.0 * np.log10(total_mw)
    rsrq = 10.0 * np.log10(serving_mw / total_mw)
    return ChannelColumns(rsrp_dbm[rows, serving], rssi, rsrq, sinr, cqi_from_sinr(sinr))


def cqi_from_sinr(sinr_db: np.ndarray) -> np.ndarray:
    """CQI of every SINR: a step lookup over CQI_SINR_THRESHOLDS_DB, each
    threshold the inclusive lower bound of its CQI."""
    return np.searchsorted(CQI_SINR_THRESHOLDS_DB_ARRAY, sinr_db, side="right")


def spectral_efficiencies(sinr_db: np.ndarray, cqi: np.ndarray) -> np.ndarray:
    """Achievable efficiency of every (sinr, cqi) pair, bits/s/Hz: the
    Shannon rate clipped at the CQI ladder cap."""
    shannon = np.log2(1.0 + np.power(10.0, sinr_db / 10.0))
    return np.minimum(shannon, CQI_EFFICIENCY_BPS_HZ_ARRAY[cqi])


def noise_power_per_re_dbm(params: LinkBudgetParams) -> float:
    """Thermal noise over one RE bandwidth plus the receiver noise figure."""
    re_bw_hz = params.prb_bandwidth_hz / RES_PER_PRB
    return params.noise_density_dbm_hz + 10.0 * math.log10(re_bw_hz) + params.noise_figure_db


def evolve_shadowing(prev_db, rho: float, sigma_db: float, rng: np.random.Generator):
    """AR(1) shadowing step: rho*prev + sqrt(1-rho^2)*N(0, sigma), elementwise.

    Always consumes exactly one draw per element, in row-major order, so
    callers keep a stable random stream.
    """
    innovation = rng.normal(0.0, sigma_db, size=np.shape(prev_db))
    return rho * prev_db + math.sqrt(max(0.0, 1.0 - rho * rho)) * innovation
