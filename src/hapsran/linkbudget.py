"""HAPS downlink link budget: FSPL, shadow fading, clutter and building entry loss.

All large-scale terms combine additively in dB.  Elevation-dependent LOS
probability, shadow-fading sigma and clutter loss come from an embedded
S-band dense-urban table file that users may replace with their own JSON.
Building entry loss follows the dual-lognormal "loss not exceeded with
probability p" model with separate coefficient sets for traditional and
thermally efficient buildings.  The per-UE combination of these terms is
``hapscapacity.path_loss_db``, vectorized over a UE population.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from ._numeric import scalar_or_array
from .errors import InvalidArgumentError

_DEFAULT_TABLE_FILE = "channel_tables_s_band_dense_urban.json"

# fixed pieces of the dual-lognormal entry-loss model
_BEL_ELEVATION_SLOPE = 0.212  # dB per degree of path elevation
_BEL_FLOOR_DB = -3.0
_BEL_CLASSES = ("traditional", "thermally_efficient")  # the building classes the model uses


@dataclass(frozen=True)
class BelCoefficients:
    """Coefficient set of the dual-lognormal building entry loss model."""

    r: float
    s: float
    t: float
    u: float
    v: float
    w: float
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class ChannelTables:
    """Elevation-bucket-indexed channel data plus entry-loss coefficients."""

    environment: str
    band: str
    angles_deg: tuple[float, ...]
    los_prob: tuple[float, ...]
    sf_sigma_los: tuple[float, ...]
    sf_sigma_nlos: tuple[float, ...]
    clutter_los: tuple[float, ...]
    clutter_nlos: tuple[float, ...]
    bel: dict[str, BelCoefficients]

    def __post_init__(self):
        n = len(self.angles_deg)
        if n == 0 or any(a >= b for a, b in zip(self.angles_deg, self.angles_deg[1:])):
            raise InvalidArgumentError(f"angles_deg {self.angles_deg} is not strictly ascending")
        for name in ("los_prob", "sf_sigma_los", "sf_sigma_nlos", "clutter_los", "clutter_nlos"):
            if len(getattr(self, name)) != n:
                raise InvalidArgumentError(f"{name} must have one entry per angle bucket")
        if any(not 0 <= p <= 1 for p in self.los_prob):
            raise InvalidArgumentError("LOS probabilities must be in [0,1]")
        if any(s < 0 for s in self.sf_sigma_los + self.sf_sigma_nlos):
            raise InvalidArgumentError("shadow-fading sigma must be >= 0")
        if any(c < 0 for c in self.clutter_los + self.clutter_nlos):
            raise InvalidArgumentError("clutter loss must be >= 0")
        for cls in _BEL_CLASSES:
            if cls not in self.bel:
                raise InvalidArgumentError(f"missing entry-loss coefficients for {cls!r}")

    def bucket_index(self, elevation_deg: float) -> int:
        """Index of the nearest entry of angles_deg; halfway goes to the higher angle."""
        angles = self.angles_deg
        if not angles[0] <= elevation_deg <= angles[-1]:
            raise InvalidArgumentError(
                f"elevation {elevation_deg} outside covered range [{angles[0]}, {angles[-1]}]"
            )
        idx = bisect.bisect_left(angles, elevation_deg)  # first angle >= elevation
        if idx > 0 and elevation_deg - angles[idx - 1] < angles[idx] - elevation_deg:
            idx -= 1
        return idx


def _entry(doc, key: str):
    """doc at a dotted key such as "sf_sigma.los"; an error names the first missing part."""
    parts = key.split(".")
    for i, part in enumerate(parts):
        if not isinstance(doc, dict) or part not in doc:
            raise InvalidArgumentError(f"channel tables: missing key {'.'.join(parts[:i + 1])!r}")
        doc = doc[part]
    return doc


def _numbers(doc, key: str, many: bool = True):
    """The list of finite numbers at a dotted key as a tuple, or with many=False one number."""
    value = _entry(doc, key)
    values = value if many else [value]
    ok = isinstance(values, list) and all(type(v) in (int, float) for v in values)
    if not (ok and all(map(math.isfinite, values))):
        raise InvalidArgumentError(f"channel tables: {key!r} must hold finite numbers")
    return tuple(values) if many else value


def _bel(doc, cls: str) -> BelCoefficients:
    names = (f.name for f in fields(BelCoefficients))
    return BelCoefficients(**{n: _numbers(doc, f"bel.{cls}.{n}", many=False) for n in names})


def load_channel_tables(path: str | Path | None = None) -> ChannelTables:
    """Load channel tables from a JSON file; default is the embedded dataset."""
    if path is None:
        raw = resources.files("hapsran.data").joinpath(_DEFAULT_TABLE_FILE).read_text()
    else:
        raw = Path(path).read_text()
    doc = json.loads(raw)
    return ChannelTables(
        environment=_entry(doc, "environment"),
        band=_entry(doc, "band"),
        angles_deg=_numbers(doc, "angles_deg"),
        los_prob=_numbers(doc, "los_prob"),
        sf_sigma_los=_numbers(doc, "sf_sigma.los"),
        sf_sigma_nlos=_numbers(doc, "sf_sigma.nlos"),
        clutter_los=_numbers(doc, "clutter.los"),
        clutter_nlos=_numbers(doc, "clutter.nlos"),
        bel={cls: _bel(doc, cls) for cls in _BEL_CLASSES},
    )


@dataclass(frozen=True)
class LinkParams:
    """HAPS downlink radio parameters; defaults reproduce the reference setup."""

    p_tx_dbm: float = 43.0
    g_element_dbi: float = 8.0
    n_rows: int = 1
    m_cols: int = 4
    g_rx_dbi: float = 0.0
    f_c_ghz: float = 2.0
    haps_height_km: float = 20.0
    noise_dbm: float = -100.96
    bandwidth_hz: float = 20e6

    def __post_init__(self):
        if self.n_rows < 1 or self.m_cols < 1:
            raise InvalidArgumentError("array dimensions must be >= 1")
        if self.bandwidth_hz <= 0 or self.haps_height_km <= 0 or self.f_c_ghz <= 0:
            raise InvalidArgumentError("bandwidth, height and frequency must be positive")


def fspl_db(d_km: float, f_c_ghz: float) -> float:
    """Free-space path loss for distance in km and frequency in GHz."""
    if d_km <= 0 or f_c_ghz <= 0:
        raise InvalidArgumentError("distance and frequency must be positive")
    return 92.45 + 20 * math.log10(f_c_ghz) + 20 * math.log10(d_km)


def slant_range_km(height_km: float, elevation_deg: float) -> float:
    """HAPS-to-ground separation along the line of sight."""
    if elevation_deg <= 0 or elevation_deg > 90:
        raise InvalidArgumentError("elevation must be in (0, 90] degrees")
    if height_km <= 0:
        raise InvalidArgumentError("height must be positive")
    return height_km / math.sin(math.radians(elevation_deg))


def tx_array_gain_dbi(g_element_dbi: float, n_rows: int, m_cols: int) -> float:
    """Peak array gain: single-element gain plus 10*log10 of the element count."""
    if n_rows * m_cols < 1:
        raise InvalidArgumentError("array must contain at least one element")
    return g_element_dbi + 10 * math.log10(n_rows * m_cols)


def los_probability(tables: ChannelTables, elevation_deg: float) -> float:
    return tables.los_prob[tables.bucket_index(elevation_deg)]


def building_entry_loss_db(coeffs: BelCoefficients, f_c_ghz: float, elevation_deg: float, p):
    """Entry loss not exceeded with probability p; vectorized over p.

    Two lognormal components (median and spread depending on frequency and on
    the path elevation through the building face) are power-combined with a
    fixed floor; the result is strictly increasing in p.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p >= 1):
        raise InvalidArgumentError("p must be in the open interval (0, 1)")
    if f_c_ghz <= 0:
        raise InvalidArgumentError("frequency must be positive")
    lf = math.log10(f_c_ghz)
    l_h = coeffs.r + coeffs.s * lf + coeffs.t * lf * lf
    l_e = _BEL_ELEVATION_SLOPE * abs(elevation_deg)
    mu1 = l_h + l_e
    mu2 = coeffs.w + coeffs.x * lf
    sigma1 = coeffs.u + coeffs.v * lf
    sigma2 = coeffs.y + coeffs.z * lf
    # evaluated in two buffers, in the operation order of
    # 10 * log10(10 ** (0.1 * (mu1 + sigma1 * z)) + 10 ** (0.1 * (mu2 + sigma2 * z)) + floor);
    # out= keeps a 0-d p an array, so it takes the same path
    z = ndtri(p, out=np.empty_like(p))
    power = np.multiply(z, sigma1, out=np.empty_like(z))
    z *= sigma2
    for term, mu in ((power, mu1), (z, mu2)):
        term += mu
        term *= 0.1
        np.power(10.0, term, out=term)
    power += z
    power += 10 ** (0.1 * _BEL_FLOOR_DB)
    np.log10(power, out=power)
    power *= 10
    return scalar_or_array(power)


def snr_db(params: LinkParams, pl_db) -> float:
    """Received SNR in dB for a given total path loss."""
    gain = tx_array_gain_dbi(params.g_element_dbi, params.n_rows, params.m_cols)
    out = params.p_tx_dbm + gain + params.g_rx_dbi - np.asarray(pl_db, dtype=float) - params.noise_dbm
    return scalar_or_array(out)


def ue_rate_bps(params: LinkParams, snr_db):
    """Shannon rate over the configured channel bandwidth."""
    snr_lin = 10 ** (np.asarray(snr_db, dtype=float) / 10)
    out = params.bandwidth_hz * np.log2(1 + snr_lin)
    return scalar_or_array(out)
