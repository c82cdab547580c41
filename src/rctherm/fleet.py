"""Fleet-level tooling: metadata clustering, representative selection, and
synthetic fleet generation with known ground-truth RC parameters.

Clustering uses (floor_area, year_built) z-scored per feature; raw Euclidean
distance would be dominated by floor area. Synthetic traces replace the
non-redistributable production dataset: each home's true RC network is
simulated under a bang-bang thermostat with a 0.5 degF hysteresis band.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateSeriesError,
    InvalidParameterError,
    ParseError,
    ShapeError,
)
from .jsonfile import JsonFile
from .rcnet import (
    MAX_ORDER,
    RcParams,
    build_state_space,
    discretize,
    filter_modes,
    initial_state,
    modal_form,
)
from .timeseries import (
    MODE_AUTO,
    MODE_COOL,
    MODE_HEAT,
    SAMPLES_PER_DAY,
    STEP_SECONDS,
    ControlSeries,
    Trace,
)

HYSTERESIS_F = 0.5
KMEANS_RESTARTS = 10
#: The elbow rule examines k = 1..ELBOW_K_MAX clusters (fewer on a small fleet).
ELBOW_K_MAX = 10
#: Samples of indoor temperature the generator computes ahead of its
#: hysteresis loop; a duty switch updates the rest of the window in place.
LOOKAHEAD = 48
#: The construction years a home's metadata may hold.
YEAR_BUILT_RANGE = (1800, 2100)
#: The ranges a synthetic home's floor area (square feet), construction year
#: and steady-state lifts (degF, heating and cooling) are drawn from,
#: uniformly; its RC truth scales with where it falls in the first two.
SYNTH_FLOOR_AREAS = (800.0, 4000.0)
SYNTH_YEARS_BUILT = (1950, 2020)
SYNTH_LIFTS = (20.0, 60.0)
#: The first timestamp of every synthetic trace.
START = datetime(2019, 1, 1, tzinfo=timezone.utc)
_MAX_LLOYD_ITERS = 100


def check_home_id(home_id):
    """A home_id names the files written for its home, so it must be a
    non-empty file name: no '/', '\\' or NUL, and not '.' or '..'."""
    if home_id in ("", ".", "..") or any(c in home_id for c in "/\\\0"):
        raise InvalidParameterError(f"home_id {home_id!r} is not a file name")


@dataclass(frozen=True)
class HomeMetadata:
    home_id: str
    floor_area: float  # square feet
    year_built: int
    province: str = ""
    city: str = ""

    def __post_init__(self):
        check_home_id(self.home_id)
        if not (np.isfinite(self.floor_area) and self.floor_area > 0):
            raise InvalidParameterError(f"floor_area must be positive, got {self.floor_area}")
        if not YEAR_BUILT_RANGE[0] <= self.year_built <= YEAR_BUILT_RANGE[1]:
            raise InvalidParameterError(
                f"year_built {self.year_built} outside {list(YEAR_BUILT_RANGE)}")

    @property
    def features(self):
        return np.array([self.floor_area, float(self.year_built)])


@dataclass(frozen=True)
class Clustering(JsonFile, error=ShapeError, name="clustering"):
    """k-means result in standardized (floor_area, year_built) space."""

    k: int
    centroids: np.ndarray  # (k, 2), standardized
    assignments: dict[str, int]  # home_id -> cluster index
    sse: float
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def __post_init__(self):
        if self.k < 1 or np.shape(self.centroids) != (self.k, 2):
            raise ShapeError(f"centroids must be ({self.k}, 2), got shape "
                             f"{np.shape(self.centroids)}")
        for name in ("feature_mean", "feature_std"):
            if np.shape(getattr(self, name)) != (2,):
                raise ShapeError(f"{name} must hold 2 values, got {getattr(self, name)!r}")
        if not (np.asarray(self.feature_std) > 0).all():
            raise ShapeError(f"feature_std must be positive, got {self.feature_std!r}")
        outside = sorted(h for h, c in self.assignments.items() if not 0 <= c < self.k)
        if outside:
            raise ShapeError(f"assignments of {outside} lie outside [0, {self.k})")

    def standardize(self, features):
        return (np.asarray(features, dtype=float) - self.feature_mean) / self.feature_std


def _kmeans_pp_init(points, k, rng):
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i:] = points[rng.integers(n, size=k - i)]
            break
        centroids[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def _lloyd(points, centroids):
    labels = None
    for _ in range(_MAX_LLOYD_ITERS):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        for j in range(len(centroids)):
            members = points[new_labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                # re-seed an empty cluster at the worst-served point
                worst = np.argmax(d2[np.arange(len(points)), new_labels])
                centroids[j] = points[worst]
                new_labels[worst] = j
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    sse = float(d2[np.arange(len(points)), labels].sum())
    return centroids, labels, sse


def kmeans(points, k, seed=0, init=None):
    """Best of KMEANS_RESTARTS Lloyd runs from k-means++ seeding.

    ``init`` optionally adds one extra restart from given starting centroids
    (used by the elbow curve to inherit the previous k's solution).
    Returns (centroids, labels, sse).
    """
    points = np.asarray(points, dtype=float)
    if k < 1:
        raise ConfigError("k must be >= 1")
    if len(points) < k:
        raise DataError(f"cannot form {k} clusters from {len(points)} points")
    rng = np.random.default_rng(seed)
    best = None
    starts = [_kmeans_pp_init(points, k, rng) for _ in range(KMEANS_RESTARTS)]
    if init is not None:
        starts.append(np.asarray(init, dtype=float).copy())
    for start in starts:
        result = _lloyd(points, start.copy())
        if best is None or result[2] < best[2]:
            best = result
    return best


def _standardize(metadata):
    """(points, mean, std) of the z-scored metadata features; a constant
    feature keeps unit scale."""
    features = np.array([h.features for h in metadata])
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    # equal values whose float mean rounds have a std of rounding size, not 0
    std[np.ptp(features, axis=0) == 0] = 1.0
    return (features - mean) / std, mean, std


def cluster_homes(metadata, k, seed=0):
    """Standardize metadata features and cluster; returns a Clustering.

    k = 0 picks k by the elbow rule over k = 1..min(ELBOW_K_MAX, number of
    homes) and keeps the elbow curve's own clustering at that k. The curve
    ends at its first zero SSE, since more clusters cannot fit better; a
    curve left with one point (one home, or homes with equal metadata)
    gives k = 1. An empty metadata list is a DataError.
    """
    homes = list(metadata)
    if not homes:
        raise DataError("cannot cluster an empty set of homes")
    points, mean, std = _standardize(homes)
    if k:
        centroids, labels, sse = kmeans(points, k, seed=seed)
    else:
        curve = _elbow_curve(points, min(ELBOW_K_MAX, len(points)), seed)
        sse = [result[2] for result in curve]
        if 0.0 in sse:
            sse = sse[:sse.index(0.0) + 1]
        k = select_k(diminishing_return(sse))[0] if len(sse) > 1 else 1
        centroids, labels, sse = curve[k - 1]
    assignments = {h.home_id: int(lab) for h, lab in zip(homes, labels)}
    return Clustering(k=k, centroids=centroids, assignments=assignments,
                      sse=sse, feature_mean=mean, feature_std=std)


def _elbow_curve(points, k_max, seed):
    """kmeans' (centroids, labels, sse) for k = 1..k_max. Each k also
    restarts from the previous k's centroids plus the point farthest from
    them, so the SSE does not increase with k (up to rounding)."""
    curve = []
    for k in range(1, k_max + 1):
        init = None
        if curve:
            prev = curve[-1][0]
            d2 = np.min(np.sum((points[:, None, :] - prev[None, :, :]) ** 2, axis=2), axis=1)
            init = np.vstack([prev, points[np.argmax(d2)]])
        curve.append(kmeans(points, k, seed=seed + k, init=init))
    return curve


def sse_curve(points, k_max, seed=0):
    """SSE of the best clustering for k = 1..k_max; non-increasing."""
    curve = _elbow_curve(np.asarray(points, dtype=float), k_max, seed)
    return np.array([sse for _, _, sse in curve])


def diminishing_return(sse):
    """Percent change between consecutive SSE values."""
    sse = np.asarray(sse, dtype=float)
    if len(sse) < 2:
        raise DataError("need at least 2 SSE values")
    if np.any(sse[:-1] == 0):
        raise DegenerateSeriesError("zero SSE in a denominator position")
    return (sse[1:] - sse[:-1]) / sse[:-1] * 100.0


def select_k(d, flat_threshold_pct=5.0):
    """Smallest k after which the SSE decrease stays below the threshold.

    Returns (k, found); found is False when no sustained-flat index exists
    and k falls back to the largest examined cluster count.
    """
    d = np.asarray(d, dtype=float)
    if len(d) == 0:
        raise DataError("empty diminishing-return sequence")
    flat = np.abs(d) < flat_threshold_pct
    for i in range(len(flat)):
        if flat[i:].all():
            return i + 1, True
    return len(d) + 1, False


def representative(clustering, cluster_index, metadata):
    """The member closest to the centroid; lexicographic id tie-break."""
    members = [h for h in metadata if clustering.assignments.get(h.home_id) == cluster_index]
    if not members:
        raise DataError(f"cluster {cluster_index} is empty")
    centroid = clustering.centroids[cluster_index]
    best_id, best_d = None, np.inf
    for h in sorted(members, key=lambda m: m.home_id):
        dist = float(np.sum((clustering.standardize(h.features) - centroid) ** 2))
        if dist < best_d - 1e-15:
            best_id, best_d = h.home_id, dist
    return best_id


def assign(metadata, clustering):
    """Nearest-centroid cluster index for a (possibly new) home."""
    point = clustering.standardize(metadata.features)
    d2 = np.sum((clustering.centroids - point) ** 2, axis=1)
    return int(np.argmin(d2))


# ---------------------------------------------------------------------------
# Synthetic fleet generation

@dataclass(frozen=True)
class SeasonConfig:
    """Generator settings for one season of one fleet."""

    name: str = "winter"
    days: int = 90
    outdoor_mean: float = 20.0
    outdoor_daily_amplitude: float = 8.0
    outdoor_seasonal_amplitude: float = 5.0
    weather_noise_std: float = 1.0
    setheat_day: float = 70.0
    setheat_night: float = 66.0
    setcool_day: float = 76.0
    setcool_night: float = 78.0
    hvac_mode: int = MODE_HEAT
    #: R and C values are scaled by (1 + param_shift) in this season,
    #: emulating season-dependent effective parameters.
    param_shift: float = 0.0

    def __post_init__(self):
        if self.days < 1:
            raise ConfigError(f"season {self.name!r} needs days >= 1, got {self.days}")
        if not self.weather_noise_std >= 0:
            raise ConfigError(f"season {self.name!r} needs weather_noise_std >= 0, "
                              f"got {self.weather_noise_std}")


@dataclass(frozen=True)
class FleetConfig:
    n_homes: int
    order: int = 2
    seasons: tuple[SeasonConfig, ...] = (SeasonConfig(),)
    measurement_noise_std: float = 0.05

    def __post_init__(self):
        if self.n_homes < 1:
            raise ConfigError("n_homes must be >= 1")
        if not 1 <= self.order <= MAX_ORDER:
            raise ConfigError(f"order must be in [1, {MAX_ORDER}], got {self.order}")
        if not self.measurement_noise_std >= 0:
            raise ConfigError(f"measurement_noise_std must be >= 0, "
                              f"got {self.measurement_noise_std}")
        if not self.seasons:
            raise ConfigError("a fleet needs at least one season")


@dataclass(frozen=True)
class SyntheticHome:
    metadata: HomeMetadata
    truth: RcParams


def _home_rng(master_seed, home_index, stream):
    """Documented seed-splitting rule: one child rng per (home, stream)."""
    return np.random.default_rng([int(master_seed), int(home_index), int(stream)])


def _sample_truth(order, meta, rng):
    """Physical parameters linked to metadata: interior capacitance grows
    with floor area, total resistance with construction year."""
    n = order
    area01 = (meta.floor_area - SYNTH_FLOOR_AREAS[0]) / (
        SYNTH_FLOOR_AREAS[1] - SYNTH_FLOOR_AREAS[0])
    year01 = (meta.year_built - SYNTH_YEARS_BUILT[0]) / (
        SYNTH_YEARS_BUILT[1] - SYNTH_YEARS_BUILT[0])
    c_interior = 2.0 + 6.0 * area01 + rng.normal(0, 0.2)
    c_interior = max(c_interior, 0.5)
    r_total = 1.5 + 2.5 * year01 + rng.normal(0, 0.1)
    r_total = max(r_total, 0.3)

    shares = rng.uniform(0.5, 1.5, size=n)
    resistances = r_total * shares / shares.sum()
    capacitances = np.empty(n)
    capacitances[n - 1] = c_interior
    # envelope lumps are lighter than the interior
    capacitances[: n - 1] = c_interior * rng.uniform(0.15, 0.5, size=n - 1)

    lift_heat = rng.uniform(*SYNTH_LIFTS)
    lift_cool = rng.uniform(*SYNTH_LIFTS)
    return RcParams(
        resistances=tuple(resistances),
        capacitances=tuple(capacitances),
        q_heat=lift_heat / r_total,
        q_cool=lift_cool / r_total,
    )


def _season_truth(truth, season):
    if season.param_shift == 0.0:
        return truth
    f = 1.0 + season.param_shift
    return RcParams(
        resistances=tuple(r * f for r in truth.resistances),
        capacitances=tuple(c * f for c in truth.capacitances),
        q_heat=truth.q_heat,
        q_cool=truth.q_cool,
    )


def _outdoor_profile(season, n_samples, rng):
    t_days = np.arange(n_samples) / SAMPLES_PER_DAY
    daily = season.outdoor_daily_amplitude * np.sin(2 * np.pi * (t_days - 0.25))
    seasonal = season.outdoor_seasonal_amplitude * np.sin(2 * np.pi * t_days / season.days)
    noise = rng.normal(0, season.weather_noise_std, size=n_samples)
    return season.outdoor_mean + daily + seasonal + noise


def _setpoint_schedule(season, n_samples):
    hour = (np.arange(n_samples) % SAMPLES_PER_DAY) / (SAMPLES_PER_DAY / 24)
    day = (hour >= 7) & (hour < 22)
    setheat = np.where(day, float(season.setheat_day), float(season.setheat_night))
    setcool = np.where(day, float(season.setcool_day), float(season.setcool_night))
    return setheat, setcool


def generate_trace(truth, season, home_id, start, rng, measurement_noise_std):
    """Simulate one season of thermostat data from a true RC network.

    The thermostat is bang-bang with a +-0.5 degF hysteresis band around the
    scheduled setpoint, deciding each interval's duty from the previous
    sample's temperature. The schedule depends only on the time of day, so
    the band's thresholds are built once, for one day, and the trace's
    setpoints tile that day.

    The indoor temperature is a superposition. Its open-loop part (initial
    state and outdoor drive) is filtered per mode of Phi. Its duty part is
    closed form, so the per-sample loop only applies the hysteresis rule,
    reading the temperature from windows of LOOKAHEAD samples, each computed
    at once; a window ends at the end of a day or when it runs out. A duty
    switch inside a window adds its closed-form response to the rest of the
    window and to the modal state at the window's end, and the loop goes on
    through the same window.

    Returns (trace, the generator's exact duty signals as a ControlSeries).
    The analysis pipeline reconstructs controls from setpoints without the
    hysteresis band, so the reconstruction deliberately disagrees with these
    inside the band.
    """
    params = _season_truth(truth, season)
    ss = build_state_space(params)
    ds = discretize(ss, STEP_SECONDS)
    n_samples = season.days * SAMPLES_PER_DAY

    t_out = _outdoor_profile(season, n_samples, rng)
    day_heat, day_cool = _setpoint_schedule(season, SAMPLES_PER_DAY)
    setheat, setcool = np.tile(day_heat, season.days), np.tile(day_cool, season.days)
    # a disabled channel's band is infinite, so the rule never switches it on
    heat_band = HYSTERESIS_F if season.hvac_mode in (MODE_HEAT, MODE_AUTO) else np.inf
    cool_band = HYSTERESIS_F if season.hvac_mode in (MODE_COOL, MODE_AUTO) else np.inf
    heat_lo, heat_hi = (day_heat - heat_band).tolist(), (day_heat + heat_band).tolist()
    cool_lo, cool_hi = (day_cool - cool_band).tolist(), (day_cool + cool_band).tolist()

    modes = lam, v, v_inv = modal_form(ds)
    hold = ds.gamma1 - ds.gamma2
    x0 = initial_state(params, 0.5 * (setheat[0] + setcool[0]), t_out[0])
    y = filter_modes(modes, ss.cm[0], x0, t_out[:, None], hold[:, :1], ds.gamma2[:, :1])

    # The duty part of the modal state starts at 0 and steps
    # w <- lam w + kappa[a, b] over an interval with duty a at its start and
    # b at its end, a duty being the column of u it sets (0 off, 1 heat,
    # 2 cool). m samples into a run of duty d, w = w_star[d] + lam^m dev,
    # where dev is the run's deviation from the fixed point at its start.
    kicks = np.zeros((3, 3, len(lam)))
    for col in (1, 2):
        kicks[col, :] += hold[:, col]
        kicks[:, col] += ds.gamma2[:, col]
    kappa = kicks @ v_inv.T
    w_star = kappa[[0, 1, 2], [0, 1, 2]] / (1.0 - lam)
    out = ss.cm[0] @ v
    level = w_star @ out
    # The state is the current deviation lam^m dev followed by the run's
    # level, a mode of eigenvalue 1, so the duty part k samples on is
    # response[k] @ state and the state k samples on is powers[k] * state.
    # A switch from a to b then adds jump[a, b], which adds
    # jump_response[a, b, m] to the duty part and jump_state[a, b, m] to the
    # state m samples later.
    jump = np.empty((3, 3, len(lam) + 1))
    jump[..., :-1] = lam * w_star[:, None, :] + kappa - w_star[None, :, :]
    jump[..., -1] = level[None, :] - level[:, None]
    powers = np.append(lam, 1.0) ** np.arange(LOOKAHEAD + 1)[:, None]
    response = powers[:LOOKAHEAD] * np.append(out, 1.0)
    jump_response = jump @ response.T
    jump_state = powers * jump[:, :, None, :]
    state = np.zeros(len(lam) + 1)
    state[-1] = level[0]

    heat_on = False
    cool_on = False
    duty = 0
    switches, run_duties = [0], [0]
    # thermostat decisions for the next interval, from each reading but the last
    for day_start in range(0, n_samples - 1, SAMPLES_PER_DAY):
        day_stop = min(day_start + SAMPLES_PER_DAY, n_samples - 1)
        for t in range(day_start, day_stop, LOOKAHEAD):
            size = min(LOOKAHEAD, day_stop - t)
            window = y[t:t + size] + response[:size] @ state
            state = powers[size] * state  # the state at the window's end
            j = t - day_start  # the day index of the next reading
            readings = window.tolist()
            while True:
                for j, yt in enumerate(readings, j):
                    if yt < heat_lo[j]:
                        heat_on = True
                    elif yt > heat_hi[j]:
                        heat_on = False
                    if yt > cool_hi[j]:
                        cool_on = True
                    elif yt < cool_lo[j]:
                        cool_on = False
                    new_duty = 1 if heat_on else 2 if cool_on else 0
                    if new_duty != duty:
                        break
                if new_duty == duty:
                    break
                # the switch takes effect k samples into the window
                j += 1
                k = day_start + j - t
                window[k:] += jump_response[duty, new_duty, :size - k]
                state += jump_state[duty, new_duty, size - k]
                duty = new_duty
                switches.append(day_start + j)
                run_duties.append(duty)
                readings = window[k:].tolist()
            y[t:t + size] = window
    y[-1] += response[0] @ state
    duties = np.repeat(np.array(run_duties, dtype=np.int8), np.diff(switches + [n_samples]))
    kh = (duties == 1).view(np.int8)
    kc = (duties == 2).view(np.int8)

    t_in = y + rng.normal(0, measurement_noise_std, size=n_samples) \
        if measurement_noise_std > 0 else y.copy()
    humidity = np.clip(0.4 + rng.normal(0, 0.02, size=n_samples), 0.0, 1.0)
    motion = (rng.random(n_samples) < 0.1).astype(float)
    trace = Trace(
        home_id=home_id,
        start=start,
        t_in=t_in,
        t_out=t_out,
        t_setheat=setheat,
        t_setcool=setcool,
        hvac_mode=np.full(n_samples, season.hvac_mode, dtype=np.int8),
        motion=motion,
        humidity=humidity,
    )
    return trace, ControlSeries(k_heat=kh, k_cool=kc)


def synth_fleet(config, seed=0):
    """Generate a deterministic synthetic fleet.

    Returns (homes, traces): a list of SyntheticHome and a dict mapping
    (home_id, season_name) to the generated Trace.
    """
    homes = []
    traces = {}
    for i in range(config.n_homes):
        meta_rng = _home_rng(seed, i, 0)
        home_id = f"home{i:04d}"
        meta = HomeMetadata(
            home_id=home_id,
            floor_area=float(meta_rng.uniform(*SYNTH_FLOOR_AREAS)),
            year_built=int(meta_rng.integers(SYNTH_YEARS_BUILT[0], SYNTH_YEARS_BUILT[1] + 1)),
            province="SYN",
            city="synthville",
        )
        truth = _sample_truth(config.order, meta, meta_rng)
        home = SyntheticHome(metadata=meta, truth=truth)
        homes.append(home)
        for s_idx, season in enumerate(config.seasons):
            trace_rng = _home_rng(seed, i, 1 + s_idx)
            traces[(home_id, season.name)], _ = generate_trace(
                truth, season, home_id, START, trace_rng,
                config.measurement_noise_std)
    return homes, traces


_METADATA_REQUIRED = ("home_id", "floor_area", "year_built")


def read_metadata_csv(source):
    """Metadata CSV: home_id,floor_area,year_built,province,city.

    A missing required column, a short row, a number that does not parse,
    a repeated home_id or a value HomeMetadata rejects raises ParseError
    naming the line.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            return read_metadata_csv(fh)
    reader = csv.DictReader(source)
    missing = [c for c in _METADATA_REQUIRED if c not in (reader.fieldnames or [])]
    if missing:
        raise ParseError(f"metadata CSV lacks columns {missing}", 1)
    out, first_line = [], {}  # home_id -> line of its first row
    for row in reader:
        if any(row[c] is None for c in _METADATA_REQUIRED):
            raise ParseError("row has fewer fields than the header", reader.line_num)
        numbers = {}
        for name, kind in (("floor_area", float), ("year_built", int)):
            try:
                numbers[name] = kind(row[name])
            except ValueError:
                raise ParseError(f"bad {name} value {row[name]!r}", reader.line_num) from None
        if first_line.setdefault(row["home_id"], reader.line_num) != reader.line_num:
            raise ParseError(f"home_id {row['home_id']!r} repeats line "
                             f"{first_line[row['home_id']]}'s", reader.line_num)
        try:
            out.append(HomeMetadata(
                home_id=row["home_id"],
                **numbers,
                province=row.get("province", "") or "",
                city=row.get("city", "") or "",
            ))
        except InvalidParameterError as exc:
            raise ParseError(str(exc), reader.line_num) from None
    return out


def write_metadata_csv(metadata, sink):
    if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
        with open(sink, "w", newline="") as fh:
            write_metadata_csv(metadata, fh)
            return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["home_id", "floor_area", "year_built", "province", "city"])
    for m in metadata:
        writer.writerow([m.home_id, repr(m.floor_area), m.year_built, m.province, m.city])
