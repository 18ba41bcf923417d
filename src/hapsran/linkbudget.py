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
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from ._numeric import is_finite, parse_json, require_finite, scalar_or_array
from .errors import InvalidArgumentError

_DEFAULT_TABLE_FILE = "channel_tables_s_band_dense_urban.json"

# fixed pieces of the dual-lognormal entry-loss model
_BEL_ELEVATION_SLOPE = 0.212  # dB per degree of path elevation
_BEL_FLOOR_DB = -3.0
_BEL_CLASSES = ("traditional", "thermally_efficient")  # the building classes the model uses

# 10 ** (x / 10) as exp(x * _DB_TO_LN): one exp is cheaper than a power of 10
_DB_TO_LN = math.log(10) / 10

# Cephes ndtri: a rational in (p - 0.5)**2 for exp(-2) < p <= 1 - exp(-2), and in
# 1 / sqrt(-2 log y), y = min(p, 1 - p), on the tails, with one coefficient set for
# sqrt(-2 log y) < 8 and one beyond; each q omits its leading coefficient, which is 1
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _rational(x: np.ndarray, p: tuple[float, ...], q: tuple[float, ...]) -> np.ndarray:
    """x * P(x) / Q(x) by Horner steps, in Cephes' order: polevl, times x, over p1evl."""
    num = x * p[0]
    num += p[1]
    for c in p[2:]:
        num *= x
        num += c
    num *= x
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def _ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF for 0 < p < 1, as an array of p's shape.

    The central rational is evaluated for every p (it stays finite up to |p - 0.5| = 0.5)
    and the tails overwrite it through one index array: on randomly drawn p that is
    cheaper than selecting either branch with a boolean mask.
    """
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    y = flat - 0.5
    x = _rational(y * y, _NDTRI_P0, _NDTRI_Q0)
    x *= y
    x += y
    x *= _SQRT_2PI
    tail = np.flatnonzero((flat <= _EXP_M2) | (flat > 1 - _EXP_M2))
    pt = flat[tail]
    s = np.log(np.minimum(pt, 1 - pt))
    s *= -2.0
    np.sqrt(s, out=s)
    z = 1 / s
    x1 = _rational(z, _NDTRI_P1, _NDTRI_Q1)
    far = np.flatnonzero(s >= 8)
    x1[far] = _rational(z[far], _NDTRI_P2, _NDTRI_Q2)
    xt = s - np.log(s) / s
    xt -= x1
    x[tail] = np.copysign(xt, pt - 0.5)
    return x.reshape(p.shape)


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
        for name in ("environment", "band"):
            if not isinstance(getattr(self, name), str):
                raise InvalidArgumentError(f"channel tables: {name!r} must be a string")
        n = len(self.angles_deg)
        if n == 0 or any(a >= b for a, b in zip(self.angles_deg, self.angles_deg[1:])):
            raise InvalidArgumentError(f"angles_deg {self.angles_deg} is not strictly ascending")
        if not (0 <= self.angles_deg[0] and self.angles_deg[-1] <= 90):
            raise InvalidArgumentError(f"angles_deg {self.angles_deg} must lie in [0, 90] degrees")
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


# every key a tables file holds, with the kind of value each leaf holds; a dict lists the
# keys below its key
_TEXT, _NUMBERS, _NUMBER = "text", "a list of finite numbers", "one finite number"
_TABLE_KEYS = {
    "environment": _TEXT,
    "band": _TEXT,
    "angles_deg": _NUMBERS,
    "los_prob": _NUMBERS,
    "sf_sigma": {"los": _NUMBERS, "nlos": _NUMBERS},
    "clutter": {"los": _NUMBERS, "nlos": _NUMBERS},
    "bel": {cls: {f.name: _NUMBER for f in fields(BelCoefficients)} for cls in _BEL_CLASSES},
}


def _checked(doc, keys: dict, path: str = "") -> dict:
    """doc's values at the keys that keys lists, in its order; a number list as a tuple.

    An error names the key at fault by its dotted path: one that keys does not list, the
    first that doc lacks (below a value that is not a dict, too), or a number or number
    list that is not finite.  Each number keeps its JSON type; ChannelTables checks text.
    """
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"channel tables: missing key {path + next(iter(keys))!r}")
    for key in doc:
        if key not in keys:
            raise InvalidArgumentError(f"channel tables: unknown key {path + key!r}")
    values = {}
    for key, kind in keys.items():
        if key not in doc:
            raise InvalidArgumentError(f"channel tables: missing key {path + key!r}")
        value = doc[key]
        if isinstance(kind, dict):
            value = _checked(value, kind, f"{path}{key}.")
        elif kind is not _TEXT:
            numbers = value if kind is _NUMBERS else [value]
            ok = isinstance(numbers, list) and all(type(v) in (int, float) for v in numbers)
            if not (ok and all(map(is_finite, numbers))):
                raise InvalidArgumentError(f"channel tables: {path + key!r} must hold finite numbers")
            value = tuple(numbers) if kind is _NUMBERS else value
        values[key] = value
    return values


def load_channel_tables(path: str | Path | None = None) -> ChannelTables:
    """Load channel tables from a JSON file; default is the embedded dataset."""
    if path is None:
        raw = resources.files("hapsran.data").joinpath(_DEFAULT_TABLE_FILE).read_bytes()
    else:
        raw = Path(path).read_bytes()
    values = _checked(parse_json(raw), _TABLE_KEYS)
    bel = {cls: BelCoefficients(**coeffs) for cls, coeffs in values.pop("bel").items()}
    # every other key a.b is the field a_b, such as sf_sigma_los
    for group, keys in _TABLE_KEYS.items():
        if isinstance(keys, dict) and group != "bel":
            values.update({f"{group}_{key}": v for key, v in values.pop(group).items()})
    return ChannelTables(**values, bel=bel)


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
        require_finite(self)
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
    if not ((p > 0) & (p < 1)).all():  # NaN fails both comparisons
        raise InvalidArgumentError("p must be in the open interval (0, 1)")
    if not 0 < f_c_ghz < math.inf:
        raise InvalidArgumentError(f"frequency must be positive and finite, got {f_c_ghz}")
    if not math.isfinite(elevation_deg):
        raise InvalidArgumentError(f"elevation must be finite, got {elevation_deg}")
    lf = math.log10(f_c_ghz)
    l_h = coeffs.r + coeffs.s * lf + coeffs.t * lf * lf
    l_e = _BEL_ELEVATION_SLOPE * abs(elevation_deg)
    mu1 = l_h + l_e
    mu2 = coeffs.w + coeffs.x * lf
    sigma1 = coeffs.u + coeffs.v * lf
    sigma2 = coeffs.y + coeffs.z * lf
    # evaluated in two buffers, in the operation order of 10 * log10(exp((mu1 + sigma1 * z)
    # * _DB_TO_LN) + exp((mu2 + sigma2 * z) * _DB_TO_LN) + exp(floor * _DB_TO_LN));
    # _ndtri keeps a 0-d p an array, so it takes the same path
    z = _ndtri(p)
    power = np.multiply(z, sigma1, out=np.empty_like(z))
    z *= sigma2
    for term, mu in ((power, mu1), (z, mu2)):
        term += mu
        term *= _DB_TO_LN
        np.exp(term, out=term)
    power += z
    power += math.exp(_BEL_FLOOR_DB * _DB_TO_LN)
    np.log10(power, out=power)
    power *= 10
    return scalar_or_array(power)


def snr_db(params: LinkParams, pl_db) -> float:
    """Received SNR in dB for a given total path loss."""
    return scalar_or_array(_snr_db_into(params, np.array(pl_db, dtype=float)))


def ue_rate_bps(params: LinkParams, snr_db):
    """Shannon rate over the configured channel bandwidth."""
    return scalar_or_array(_rate_bps_into(params, np.array(snr_db, dtype=float)))


def _snr_db_into(params: LinkParams, pl: np.ndarray) -> np.ndarray:
    """snr_db of a float array, written over it: p_tx + gain + g_rx - pl - noise."""
    gain = tx_array_gain_dbi(params.g_element_dbi, params.n_rows, params.m_cols)
    np.subtract(params.p_tx_dbm + gain + params.g_rx_dbi, pl, out=pl)
    pl -= params.noise_dbm
    return pl


def _rate_bps_into(params: LinkParams, snr: np.ndarray) -> np.ndarray:
    """ue_rate_bps of a float array, written over it: bandwidth * log2(1 + 10 ** (snr / 10))."""
    snr *= _DB_TO_LN
    np.exp(snr, out=snr)
    snr += 1
    np.log2(snr, out=snr)
    snr *= params.bandwidth_hz
    return snr
