"""Pure link-level math: path loss, shadowing, RSRP/RSSI/RSRQ/SINR and the
SINR->CQI / CQI->spectral-efficiency tables.

Everything here is a pure function of its arguments; randomness enters only
through explicitly passed generators. Powers are per resource element (RE)
unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError

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
    ref_distance_m: float = 1.0
    path_loss_exponent: float = 3.5
    shadowing_sigma_db: float = 8.0
    noise_density_dbm_hz: float = -174.0
    prb_bandwidth_hz: float = 180e3
    noise_figure_db: float = 7.0

    def __post_init__(self):
        if self.ref_distance_m <= 0:
            raise DomainError("ref_distance_m must be > 0")
        if self.path_loss_exponent <= 0:
            raise DomainError("path_loss_exponent must be > 0")
        if self.prb_bandwidth_hz <= 0:
            raise DomainError("prb_bandwidth_hz must be > 0")
        if self.shadowing_sigma_db < 0:
            raise DomainError("shadowing_sigma_db must be >= 0")
        if self.noise_figure_db < 0:
            raise DomainError("noise_figure_db must be >= 0")


@dataclass(frozen=True)
class ChannelSample:
    """One link-level observation: RSRP/RSSI in dBm, RSRQ/SINR in dB, CQI 0..15."""

    rsrp_dbm: float
    rssi_dbm: float
    rsrq_db: float
    sinr_db: float
    cqi: int

    def __post_init__(self):
        if self.rsrq_db > 1e-12:
            raise DomainError(f"rsrq_db must be <= 0, got {self.rsrq_db}")
        if not 0 <= self.cqi <= 15:
            raise DomainError(f"cqi must be in [0, 15], got {self.cqi}")


def fields_equal(a, b) -> bool:
    """Equality of dataclasses whose fields are arrays, each compared whole."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    )


@dataclass(frozen=True, eq=False)
class ChannelColumns:
    """The ChannelSample of many UEs, one (U,) array per field, with the
    checks of ChannelSample on every row. Nothing writes into the arrays."""

    __eq__ = fields_equal

    rsrp_dbm: np.ndarray
    rssi_dbm: np.ndarray
    rsrq_db: np.ndarray
    sinr_db: np.ndarray
    cqi: np.ndarray  # int

    def __post_init__(self):
        n = len(self.rsrp_dbm)
        if not n == len(self.rssi_dbm) == len(self.rsrq_db) == len(self.sinr_db) == len(self.cqi):
            raise DomainError("channel columns must have equal lengths")
        if not n:
            return
        # fmax and fmin skip NaN unless every entry is NaN, and a NaN passes
        # both checks, as it does entry by entry.
        top = np.fmax.reduce(self.rsrq_db)
        if top > 1e-12:
            raise DomainError(f"rsrq_db must be <= 0, got {top}")
        low, high = np.fmin.reduce(self.cqi), np.fmax.reduce(self.cqi)
        if low < 0 or high > 15:
            raise DomainError(f"cqi must be in [0, 15], got {low}..{high}")

    def row(self, i: int) -> ChannelSample:
        return ChannelSample(*(column[i].item() for column in vars(self).values()))


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise DomainError(f"linear power must be > 0, got {x}")
    return 10.0 * math.log10(x)


# dBm <-> mW use the same 10^(x/10) scaling; aliases keep call sites readable.
dbm_to_mw = db_to_linear
mw_to_dbm = linear_to_db


def path_loss_db(distance_m: float, params: LinkBudgetParams) -> float:
    """Log-distance path loss; flat inside the reference distance."""
    if distance_m <= 0:
        raise DomainError(f"distance_m must be > 0, got {distance_m}")
    d = max(distance_m, params.ref_distance_m)
    return params.ref_path_loss_db + 10.0 * params.path_loss_exponent * math.log10(
        d / params.ref_distance_m
    )


def rsrp_dbm(tx_power_per_re_dbm: float, path_loss: float, shadowing_db: float) -> float:
    """Received reference-signal power per RE; positive shadowing raises it."""
    return tx_power_per_re_dbm - path_loss + shadowing_db


def sinr_db(serving_mw: float, interferers_mw, noise_mw: float) -> float:
    """10*log10(serving / (sum of interferers + noise)), all in mW per RE."""
    if serving_mw <= 0:
        raise DomainError(f"serving power must be > 0, got {serving_mw}")
    if noise_mw <= 0:
        raise DomainError(f"noise power must be > 0, got {noise_mw}")
    total = noise_mw
    for p in interferers_mw:
        if p < 0:
            raise DomainError(f"interferer power must be >= 0, got {p}")
        total += p
    return 10.0 * math.log10(serving_mw / total)


def rsrq_db(rsrp_mw_per_re: float, total_rx_mw_per_re: float) -> float:
    """Serving/total power ratio per RE, dB. <= 0 by power accounting.

    Both powers are per RE, so the PRB count of the measurement bandwidth
    cancels and takes no part.
    """
    if rsrp_mw_per_re <= 0 or total_rx_mw_per_re <= 0:
        raise DomainError("powers must be > 0")
    if total_rx_mw_per_re < rsrp_mw_per_re:
        raise DomainError(
            f"total received power {total_rx_mw_per_re} mW below serving "
            f"power {rsrp_mw_per_re} mW violates power accounting"
        )
    return 10.0 * math.log10(rsrp_mw_per_re / total_rx_mw_per_re)


def cqi_from_sinr(sinr: float) -> int:
    """Monotone step lookup over CQI_SINR_THRESHOLDS_DB, inclusive lower bounds."""
    cqi = 0
    for k, thr in enumerate(CQI_SINR_THRESHOLDS_DB, start=1):
        if sinr >= thr:
            cqi = k
        else:
            break
    return cqi


def spectral_efficiency_bps_hz(sinr: float, cqi: int) -> float:
    """Achievable efficiency: Shannon rate clipped at the CQI ladder cap."""
    if not 0 <= cqi <= 15:
        raise DomainError(f"cqi must be in [0, 15], got {cqi}")
    cap = CQI_EFFICIENCY_BPS_HZ[cqi]
    return min(math.log2(1.0 + db_to_linear(sinr)), cap)


def spectral_efficiencies(sinr_db: np.ndarray, cqi: np.ndarray) -> np.ndarray:
    """`spectral_efficiency_bps_hz` of every (sinr, cqi) pair, through numpy's
    ufuncs: each entry is within a few ulps of the scalar function's."""
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
