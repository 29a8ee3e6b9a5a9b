"""Freight marketplace world model and the dynamic bundling simulator.

Carriers (customers) arrive at region centroids, observe a ranked subset of
option-price pairs, and book at most one option. Loads expire; unbooked
loads are delivered by a proprietary truck at a penalty. Price sensitivity
is positive here (carriers are paid), so price trajectories rise toward
each load's expiration price; every closed-form formula below is written in
the mirror-invariant form shared with the retail convention.

Prices are homogeneous: quotes never depend on the carrier's region, only
the menu ranking and the acceptance probabilities do.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import stdtrit

from .bundling import _greedy_sweep, _min_deadhead_pairs
from .errors import ConfigError, MissingFreightData, config_errors
from .model import CustomerModel, Item, MarketInstance, _integer, _Record
from .numerics import _lse_kernel, _lse_weights, lambert_w_exp


@dataclass(frozen=True)
class RegionModel(_Record):
    """Arrival regions: centroids, carrier-arrival distribution, and the
    average historical deadhead miles out of each region."""

    names: tuple
    centroids: np.ndarray  # (R, 2)
    arrival_pmf: np.ndarray  # (R,)
    ehat: np.ndarray  # (R,)

    def __post_init__(self):
        self._set(names=tuple(self.names),
                  centroids=np.asarray(self.centroids, dtype=float),
                  arrival_pmf=np.asarray(self.arrival_pmf, dtype=float),
                  ehat=np.asarray(self.ehat, dtype=float))
        r = len(self.names)
        if self.centroids.shape != (r, 2) or self.arrival_pmf.shape != (r,) or self.ehat.shape != (r,):
            raise ConfigError("region arrays must all have one row per region")
        if not all(np.isfinite(a).all() for a in (self.centroids, self.arrival_pmf, self.ehat)):
            raise ConfigError("region centroids, arrival_pmf and ehat must be finite")
        if abs(self.arrival_pmf.sum() - 1.0) > 1e-9 or np.any(self.arrival_pmf < 0):
            raise ConfigError("arrival_pmf must be a probability distribution")
        if len({tuple(c) for c in self.centroids}) != r:
            raise ConfigError("centroids must be distinct")

    @property
    def n_regions(self) -> int:
        return len(self.names)

    def nearest(self, point) -> int:
        d = np.hypot(self.centroids[:, 0] - point[0], self.centroids[:, 1] - point[1])
        return int(np.argmin(d))


@dataclass(frozen=True)
class FreightCoeffs(_Record):
    """Calibrated carrier-utility coefficients (beta_p > 0: getting paid)."""

    beta0: float
    beta_d: float
    beta_e: float
    beta_b: float
    beta_p: float
    beta_org: np.ndarray
    beta_dst: np.ndarray

    def __post_init__(self):
        scalars = ("beta0", "beta_d", "beta_e", "beta_b", "beta_p")
        self._set(**{k: float(getattr(self, k)) for k in scalars},
                  beta_org=np.asarray(self.beta_org, dtype=float),
                  beta_dst=np.asarray(self.beta_dst, dtype=float))
        values = [getattr(self, k) for k in scalars]
        if not all(np.isfinite(a).all() for a in (values, self.beta_org, self.beta_dst)):
            raise ConfigError("freight coefficients must be finite")
        if self.beta_p == 0:
            raise ConfigError("beta_p must be nonzero")


def _dist(a, b) -> float:
    return math.hypot(b[0] - a[0], b[1] - a[1])


def _intercept(coeffs: FreightCoeffs, loaded, empty, bundled, org, dst):
    """Carrier utility intercept from loaded miles, empty miles, whether the
    option bundles more than one load, and the origin and destination
    region indices; the arguments broadcast against each other."""
    return (
        coeffs.beta0
        + coeffs.beta_d * loaded
        + coeffs.beta_e * empty
        + coeffs.beta_b * bundled
        + coeffs.beta_org[org]
        + coeffs.beta_dst[dst]
    )


def quality_vector(loads, coeffs, regions) -> np.ndarray:
    """Carrier utility intercept of an option for every arrival region, shape (R,).

    Empty miles are the approach leg from the region centroid to the first
    pickup plus every dropoff-to-next-pickup gap; origin/destination regions
    are the centroids nearest the first pickup and last dropoff. Every
    option of more than one load carries the bundle term beta_b.
    """
    for it in loads:
        if it.freight is None:
            raise MissingFreightData(f"load {it.id} has no freight data")
    f = [it.freight for it in loads]
    empty = np.array([_dist(c, f[0].pickup) for c in regions.centroids])
    for a, b in zip(f[:-1], f[1:]):
        empty += _dist(a.dropoff, b.pickup)
    return _intercept(coeffs, sum(x.loaded_miles for x in f), empty, len(loads) > 1,
                      regions.nearest(f[0].pickup), regions.nearest(f[-1].dropoff))


def freight_instance(
    loads: Sequence[Item],
    coeffs: FreightCoeffs,
    regions: RegionModel,
    demand: float,
    arrival_prob: float = 0.1,
    max_bundles: Optional[int] = None,
    max_bundle_size: int = 2,
) -> MarketInstance:
    """Wrap freight loads as a MarketInstance (types = arrival regions) so
    the DP, bounds, and bundling algorithms apply directly."""
    by_id = {it.id: it for it in loads}
    customer = CustomerModel(
        types=tuple(regions.names),
        arrival_pmf=regions.arrival_pmf,
        price_sensitivity=coeffs.beta_p,
        quality=lambda option: quality_vector([by_id[i] for i in option.items],
                                              coeffs, regions),
    )
    return MarketInstance(
        items=tuple(loads),
        customer=customer,
        demand=demand,
        arrival_prob=arrival_prob,
        max_bundles=len(loads) if max_bundles is None else max_bundles,
        max_bundle_size=max_bundle_size,
    )


# ---------------------------------------------------------------------------
# closed-form pricing policy
# ---------------------------------------------------------------------------


def _closed_form_price(q: np.ndarray, delta: np.ndarray, beta_p: float, pmf) -> np.ndarray:
    """Single-arrival optimal prices of k options with qualities q (k, R) and
    marginal values delta (k,), all in one lambert_w_exp call. Each option
    is priced alone from its pmf-averaged Gamma, a different aggregation from
    pricing._closed_form_choice's one Gamma per type over a whole menu."""
    gam = lambert_w_exp(q + beta_p * delta[:, None] - 1.0)
    return delta - (1.0 + gam @ pmf) / beta_p


def _log_trajectory(offset, kappa, log_togo, beta_p: float):
    """Prices on the logarithmic-in-demand-to-come trajectory of loads with
    aggregated quality kappa, offset -(beta_p pbar + kappa) from their
    expiration price pbar, and log_togo = ln(alpha * mu * (periods after
    this one)). In the last period log_togo = -inf and the price is pbar."""
    return (-1.0 / beta_p) * (np.logaddexp(offset, log_togo) + kappa)


def load_marginal_value(price, kappa, beta_p: float):
    """Marginal value consistent with the price being the single-option
    optimum: Delta = p + (1/beta_p)(1 + E_X[e^{q + beta_p p}]). Accepts
    scalars or arrays."""
    return price + (1.0 + np.exp(beta_p * price + kappa)) / beta_p


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def splitmix64(x: int) -> int:
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def truncated_geometric_pmf(mean: float = 5.0, kmax: int = 15) -> np.ndarray:
    """Default distribution of how many menu entries a carrier observes:
    geometric on {1..kmax} (index 0 carries zero mass), mean ~ requested."""
    p = min(max(1.0 / mean, 1e-6), 1.0)
    pmf = np.zeros(kmax + 1)
    pmf[1:] = p * (1 - p) ** np.arange(kmax)
    pmf /= pmf.sum()
    return pmf


@dataclass(frozen=True)
class SupplyModel(_Record):
    """Per-period Poisson load arrivals with synthetic geometry: endpoints
    are region centroids plus Gaussian scatter. Loads are inter-region by
    default (dropoff region resampled away from the pickup region), like
    the corridor freight this models."""

    rate: float
    lifetime: tuple[int, int]
    scatter: float = 15.0
    pickup_pmf: Optional[np.ndarray] = None
    dropoff_pmf: Optional[np.ndarray] = None
    inter_region: bool = True

    def __post_init__(self):
        pmfs = ("pickup_pmf", "dropoff_pmf")
        if not isinstance(self.lifetime, (tuple, list)) or len(self.lifetime) != 2:
            raise ConfigError(f"lifetime must have two entries, got {self.lifetime}")
        self._set(rate=float(self.rate), scatter=float(self.scatter),
                  lifetime=tuple(_integer("lifetime", x) for x in self.lifetime),
                  **{k: np.asarray(getattr(self, k), dtype=float) for k in pmfs
                     if getattr(self, k) is not None})
        if self.rate < 0:
            raise ConfigError("rate must be nonnegative")
        lo, hi = self.lifetime
        if lo < 1 or hi < lo:
            raise ConfigError("lifetime bounds must satisfy 1 <= lo <= hi")
        for key in pmfs:
            pmf = getattr(self, key)
            if pmf is not None and (np.any(pmf < 0) or not pmf.sum() > 0):
                raise ConfigError(f"{key} needs nonnegative entries and positive mass")


@dataclass(frozen=True)
class SimConfig(_Record):
    supply: SupplyModel
    horizon_periods: int
    seed: int
    replications: int = 1
    framework: str = "rolling_horizon"  # no_bundle | rolling_horizon | personalized
    bundling: str = "greedy"  # greedy | min_empty_miles
    pricing: str = "custom"  # linear | custom
    choice_mode: str = "mnl"  # mnl | sequential_logit
    arrival_prob: float = 0.7
    alpha: float = 1.0
    salvage_multiplier: float = 1.5
    reference_cost_per_mile: float = 2.0
    rolling_period: int = 40
    topk_pmf: Optional[np.ndarray] = None
    max_bundles: Optional[int] = None
    confidence: float = 0.99

    def __post_init__(self):
        ints = ("horizon_periods", "seed", "replications", "rolling_period", "max_bundles")
        self._set(**{k: _integer(k, getattr(self, k)) for k in ints
                     if getattr(self, k) is not None})
        if self.framework not in ("no_bundle", "rolling_horizon", "personalized"):
            raise ConfigError(f"unknown framework {self.framework!r}")
        if self.bundling not in ("greedy", "min_empty_miles"):
            raise ConfigError(f"unknown bundling method {self.bundling!r}")
        if self.pricing not in ("linear", "custom"):
            raise ConfigError(f"unknown pricing mode {self.pricing!r}")
        if self.choice_mode not in ("mnl", "sequential_logit"):
            raise ConfigError(f"unknown choice mode {self.choice_mode!r}")
        if self.horizon_periods < 1:
            raise ConfigError("horizon must be at least one period")
        if not 0 < self.arrival_prob <= 1:
            raise ConfigError("arrival_prob must lie in (0, 1]")
        if self.alpha <= 0 or self.salvage_multiplier < 0:
            raise ConfigError("alpha must be > 0 and salvage_multiplier >= 0")
        if self.topk_pmf is not None:
            self._set(topk_pmf=np.asarray(self.topk_pmf, dtype=float))
            if np.any(self.topk_pmf < 0) or abs(self.topk_pmf.sum() - 1.0) > 1e-9:
                raise ConfigError("topk_pmf must be a probability distribution")
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if self.max_bundles is not None and self.max_bundles < 0:
            raise ConfigError("max_bundles must be nonnegative")
        if self.rolling_period < 1:
            raise ConfigError("rolling_period must be at least one period")
        if not 0 < self.confidence < 1:
            raise ConfigError("confidence must lie in (0, 1)")

    @classmethod
    def from_json(cls, text: str):
        """Parse a config; malformed JSON or a missing or unknown key raise
        ConfigError."""
        with config_errors("SimConfig JSON"):
            d = json.loads(text)
            return cls.from_dict({**d, "supply": SupplyModel.from_dict(d["supply"])})


# Per-replication metrics, in output order: three ratios, then the running
# totals they are built from.
_METRICS = (
    "cost_per_loaded_mile",
    "avg_empty_miles",
    "unmet_deadline_rate",
    "total_cost",
    "loaded_miles",
    "empty_miles",
    "booked",
    "salvaged",
    "price_paid",
    "penalty_paid",
    "booked_miles",
    "salvaged_miles",
)


@dataclass
class SimMetrics:
    """Per-replication samples plus mean and CI half-width per metric."""

    samples: dict[str, np.ndarray]
    confidence: float

    def mean(self, key: str) -> float:
        return float(np.mean(self.samples[key]))

    def half_width(self, key: str) -> float:
        x = self.samples[key]
        n = len(x)
        if n < 2:
            return 0.0
        tq = stdtrit(n - 1, 0.5 + self.confidence / 2.0)  # the Student-t quantile, t.ppf
        return float(tq * np.std(x, ddof=1) / math.sqrt(n))

    @property
    def cost_per_loaded_mile(self) -> float:
        return self.mean("cost_per_loaded_mile")

    @property
    def avg_empty_miles(self) -> float:
        return self.mean("avg_empty_miles")

    @property
    def unmet_deadline_rate(self) -> float:
        return self.mean("unmet_deadline_rate")

    def summary(self) -> dict:
        out = {}
        for key in self.samples:
            out[key] = {"mean": self.mean(key), "half_width": self.half_width(key)}
        return out

    def to_json_dict(self) -> dict:
        return {
            "confidence": self.confidence,
            "summary": self.summary(),
            "samples": {k: v.tolist() for k, v in self.samples.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


class _Loads:
    """Every load of one replication as a struct of arrays indexed by uid.

    add() appends one supply period's loads in one pass and sets up all
    that later pricing reads: the geometry (approach miles from each region
    centroid, origin and destination regions, loaded miles) and the pricing
    state (singleton quality q, kappa = ln E_X[e^q], and the log-trajectory
    offset -(beta_p pbar + kappa) of the expiration price pbar). The arrays
    double in length until a batch fits."""

    _FIELDS = ("pickup", "dropoff", "approach", "dist", "expiry", "org", "dst",
               "q", "kappa", "offset", "alive")

    def __init__(self, regions: RegionModel, coeffs: FreightCoeffs, penalty_per_mile: float,
                 capacity: int = 64):
        self.regions = regions
        self.coeffs = coeffs
        self.penalty_per_mile = penalty_per_mile
        self.lse_weights = _lse_weights(regions.arrival_pmf, regions.n_regions)
        r = regions.n_regions
        self.size = 0
        self.pickup = np.empty((capacity, 2))
        self.dropoff = np.empty((capacity, 2))
        self.approach = np.empty((capacity, r))  # centroid -> pickup miles
        self.dist = np.empty(capacity)
        self.expiry = np.empty(capacity, dtype=np.int64)
        self.org = np.empty(capacity, dtype=np.int64)  # region nearest the pickup
        self.dst = np.empty(capacity, dtype=np.int64)  # region nearest the dropoff
        self.q = np.empty((capacity, r))  # singleton quality
        self.kappa = np.empty(capacity)
        self.offset = np.empty(capacity)  # -(beta_p pbar + kappa)
        self.alive = np.zeros(capacity, dtype=bool)  # neither booked nor expired

    def add(self, pickup, dropoff, expiry) -> np.ndarray:
        """Append the loads pickup[k] -> dropoff[k] (arrays (n, 2)) with their
        expiry periods; returns their uids."""
        pickup, dropoff = np.asarray(pickup, dtype=float), np.asarray(dropoff, dtype=float)
        n = len(pickup)
        while self.size + n > len(self.dist):
            for name in self._FIELDS:
                arr = getattr(self, name)
                setattr(self, name, np.concatenate([arr, np.zeros_like(arr)]))
        new = slice(self.size, self.size + n)
        self.size += n
        c, ends = self.regions.centroids, np.concatenate([pickup, dropoff])
        miles = np.hypot(c[:, 0] - ends[:, :1], c[:, 1] - ends[:, 1:])  # (2n, regions)
        nearest = miles.argmin(axis=1)
        approach, org, dst = miles[:n], nearest[:n], nearest[n:]
        dist = np.array([math.hypot(dx, dy) for dx, dy in (dropoff - pickup).tolist()])  # as _dist
        q = _intercept(self.coeffs, dist[:, None], approach, False, org[:, None], dst[:, None])
        kappa = _lse_kernel(q, *self.lse_weights)
        beta_p, pmf = self.coeffs.beta_p, self.regions.arrival_pmf
        pbar = _closed_form_price(q, self.penalty_per_mile * dist, beta_p, pmf)
        self.pickup[new], self.dropoff[new], self.approach[new] = pickup, dropoff, approach
        self.dist[new], self.org[new], self.dst[new] = dist, org, dst
        self.expiry[new] = expiry
        self.q[new], self.kappa[new] = q, kappa
        self.offset[new] = -(beta_p * pbar + kappa)
        self.alive[new] = True
        return np.arange(new.start, new.stop)

    def quality(self, first, last) -> np.ndarray:
        """Utility intercepts, shape (k, R), of the options first[k] then
        last[k] (first == last for a singleton); quality_vector for many
        options at once."""
        pair = first != last
        gap = self.pickup[last] - self.dropoff[first]
        gap = np.where(pair, np.hypot(gap[:, 0], gap[:, 1]), 0.0)
        loaded = np.where(pair, self.dist[first] + self.dist[last], self.dist[first])
        return _intercept(self.coeffs, loaded[:, None], self.approach[first] + gap[:, None],
                          pair[:, None], self.org[first][:, None], self.dst[last][:, None])


class _Menu:
    """The options on offer, a partition of the alive loads, kept as arrays
    between arrivals: each option's first and last load uid (equal for a
    singleton), its quality row and the row indices of the pairs. They
    change only when the menu does: loads appended at supply, options
    dropped with their loads, or the whole menu set by a rebuild."""

    def __init__(self, loads: _Loads):
        self.loads = loads
        uids = np.empty(0, dtype=np.int64)
        self.set(uids, uids, loads.q[uids])

    def set(self, first, last, q):
        self.first, self.last, self.q = first, last, q
        self.pairs = (first != last).nonzero()[0]

    def append(self, uids):
        """Offer the loads uids as singletons after the current options."""
        self.set(np.concatenate([self.first, uids]), np.concatenate([self.last, uids]),
                 np.concatenate([self.q, self.loads.q[uids]]))

    def remove(self, j: int):
        """Remove option j, whose loads are gone."""
        keep = np.arange(len(self.first)) != j
        self.set(self.first[keep], self.last[keep], self.q[keep])

    def drop_dead(self):
        """Remove the options with a load that is no longer alive; a pair
        that loses one member leaves the other as a singleton in its place."""
        alive = self.loads.alive
        live_first, live_last = alive[self.first], alive[self.last]
        keep = live_first | live_last
        first = np.where(live_first, self.first, self.last)[keep]
        last = np.where(live_last, self.last, self.first)[keep]
        q = self.q[keep]
        broken = (live_first != live_last)[keep]
        if broken.any():
            q[broken] = self.loads.q[first[broken]]
        self.set(first, last, q)


def sample_choice(rng, utilities: np.ndarray, mode: str) -> int:
    """Index of the accepted option, or -1 for leaving empty-handed.

    mnl: one multinomial draw over options + outside. sequential_logit: an
    independent accept/reject walk down the list, first acceptance wins.
    """
    if len(utilities) == 0:
        return -1
    if mode == "mnl":
        m = max(0.0, float(utilities.max()))
        w = np.exp(utilities - m)
        w0 = math.exp(-m)
        total = w0 + w.sum()
        u = rng.random() * total
        acc = w0
        if u < acc:
            return -1
        for i, wi in enumerate(w.tolist()):
            acc += wi
            if u < acc:
                return i
        return len(utilities) - 1
    if mode == "sequential_logit":
        probs = 1.0 / (1.0 + np.exp(-utilities))
        draws = rng.random(len(utilities))
        hits = np.flatnonzero(draws < probs)
        return int(hits[0]) if hits.size else -1
    raise ConfigError(f"unknown choice mode {mode!r}")


def _greedy_pairs(loads: _Loads, uids, marginals, max_bundles, region=None):
    """Greedy partition of the active loads uids into singletons and ordered
    pairs by expected acceptance weight at the estimated marginals, swept
    by _greedy_sweep over the singletons, then the pairs in row-major
    order. Returns the chosen options in sweep order as first and last
    positions in uids (equal for a singleton) and their quality rows."""
    n = len(uids)
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    first = np.concatenate([np.arange(n), ii])
    last = np.concatenate([np.arange(n), jj])
    dm = np.where(first != last, marginals[first] + marginals[last], marginals[first])
    q = loads.quality(uids[first], uids[last])
    beta_p = loads.coeffs.beta_p
    keys = (
        _lse_kernel(q + beta_p * dm[:, None], *loads.lse_weights)
        if region is None
        else q[:, region] + beta_p * dm
    )
    members = [(i,) for i in range(n)] + list(zip(ii.tolist(), jj.tolist()))
    chosen = np.array(_greedy_sweep(keys, members, n, max_bundles), dtype=np.int64)
    return first[chosen], last[chosen], q[chosen]


def _cdf(pmf) -> list:
    """CDF for draws with bisect_right(cdf, rng.random()), which reproduces
    rng.choice(len(pmf), p=pmf) draw for draw."""
    cdf = np.cumsum(np.asarray(pmf, dtype=float))
    cdf /= cdf[-1]
    return cdf.tolist()


def _run_replication(config: SimConfig, coeffs: FreightCoeffs, regions: RegionModel, seed: int):
    """One replication, period by period: (a) supply: each new load's draws
    in turn, then one _Loads.add for the whole period, its loads appended
    to the menu as singletons; (b) expirations from the bucket of loads due
    this period, salvaged at the penalty; (b') the rolling rebuild; (c) at
    most one carrier arrival, who sees the top-k of the menu (rebuilt for
    the carrier's region under personalized) priced at this period's
    trajectory, and books at most one option."""
    rng = np.random.default_rng(seed)
    sup = config.supply
    n_regions = regions.n_regions
    pmf = regions.arrival_pmf
    dropoff_pmf = pmf if sup.dropoff_pmf is None else sup.dropoff_pmf
    pickup_cdf = _cdf(pmf if sup.pickup_pmf is None else sup.pickup_pmf)
    dropoff_cdfs = [_cdf(dropoff_pmf)] * n_regions
    if sup.inter_region and n_regions > 1:
        for org in range(n_regions):
            w = dropoff_pmf.copy()
            w[org] = 0.0
            if w.sum() <= 0:  # dropoff mass concentrated on the origin
                w = np.ones(n_regions)
                w[org] = 0.0
            dropoff_cdfs[org] = _cdf(w / w.sum())
    arrival_cdf = _cdf(pmf)
    topk_cdf = _cdf(truncated_geometric_pmf() if config.topk_pmf is None else config.topk_pmf)
    lo, hi = sup.lifetime
    centroids, scatter = regions.centroids.tolist(), sup.scatter
    beta_p = coeffs.beta_p
    mu = config.arrival_prob
    with np.errstate(divide="ignore"):  # a load's last period: log 0 = -inf
        log_togo = np.log(config.alpha * mu * np.arange(hi))  # by periods after this one
    penalty_per_mile = config.salvage_multiplier * config.reference_cost_per_mile
    personalized = config.framework == "personalized"

    loads = _Loads(regions, coeffs, penalty_per_mile)
    menu = _Menu(loads)
    expiring = defaultdict(list)  # period -> uids that expire then, ascending
    tot = dict.fromkeys(_METRICS[3:], 0.0)

    def load_prices(uids, now):
        """Current trajectory prices and marginal values of the loads uids."""
        kappa = loads.kappa[uids]
        togo = log_togo[loads.expiry[uids] - (now + 1)]
        price = _log_trajectory(loads.offset[uids], kappa, togo, beta_p)
        return price, load_marginal_value(price, kappa, beta_p)

    def rebuild_menu(now, region=None):
        uids = np.flatnonzero(loads.alive[:loads.size])
        if uids.size == 0:
            menu.set(uids, uids, loads.q[uids])
            return
        if config.bundling == "greedy":
            marg = load_prices(uids, now)[1]
            first, last, q = _greedy_pairs(loads, uids, marg, config.max_bundles, region)
        else:
            first, last = _min_deadhead_pairs(loads.pickup[uids], loads.dropoff[uids],
                                              regions.ehat[loads.dst[uids]], config.max_bundles)
            q = loads.quality(uids[first], uids[last])
        menu.set(uids[first], uids[last], q)

    for now in range(1, config.horizon_periods + 1):
        # (a) supply
        n_new = rng.poisson(sup.rate)
        if n_new:
            pickups, dropoffs, expiry = [], [], []
            for _ in range(n_new):
                org = bisect_right(pickup_cdf, rng.random())
                ox, oy = centroids[org]
                dx, dy = centroids[bisect_right(dropoff_cdfs[org], rng.random())]
                px, py, qx, qy = rng.standard_normal(4).tolist()
                pickups.append((ox + scatter * px, oy + scatter * py))
                dropoffs.append((dx + scatter * qx, dy + scatter * qy))
                expiry.append(now + int(rng.integers(lo, hi + 1)))
            new = loads.add(pickups, dropoffs, expiry)
            for u, t in zip(new.tolist(), expiry):
                expiring[t].append(u)
            if not personalized:
                menu.append(new)

        # (b) expirations
        expired = [u for u in expiring.pop(now, ()) if loads.alive[u]]
        for u in expired:
            penalty = penalty_per_mile * loads.dist[u]
            tot["total_cost"] += penalty
            tot["penalty_paid"] += penalty
            tot["loaded_miles"] += loads.dist[u]
            tot["salvaged_miles"] += loads.dist[u]
            tot["empty_miles"] += loads.approach[u, loads.org[u]]
            tot["salvaged"] += 1
        if expired:
            loads.alive[expired] = False
            if not personalized:
                menu.drop_dead()

        # (b') rolling recompute
        if config.framework == "rolling_horizon" and (now - 1) % config.rolling_period == 0:
            rebuild_menu(now)

        # (c) carrier arrival
        if rng.random() >= mu:
            continue
        region = bisect_right(arrival_cdf, rng.random())
        if personalized:
            rebuild_menu(now, region=region)
        m = menu.first.size
        if not m:
            continue
        # price the menu in one pass; with no pair only the first members
        pairs = menu.pairs
        uids = np.concatenate([menu.first, menu.last[pairs]]) if pairs.size else menu.first
        price, marg = load_prices(uids, now)
        prices, margins = price[:m], marg[:m]
        if pairs.size:
            margins[pairs] += marg[m:]
            if config.pricing == "linear":
                prices[pairs] += price[m:]
            else:
                prices[pairs] = _closed_form_price(menu.q[pairs], margins[pairs], beta_p, pmf)
        q_region = menu.q[:, region]
        order = (-(q_region + beta_p * margins)).argsort(kind="stable")
        shown = order[:bisect_right(topk_cdf, rng.random())]
        if shown.size == 0:
            continue
        pick = sample_choice(rng, q_region[shown] + beta_p * prices[shown], config.choice_mode)
        if pick < 0:
            continue
        j = int(shown[pick])
        first, last = int(menu.first[j]), int(menu.last[j])
        tot["total_cost"] += prices[j]
        tot["price_paid"] += prices[j]
        tot["empty_miles"] += loads.approach[first, region]
        if first != last:
            tot["empty_miles"] += _dist(loads.dropoff[first], loads.pickup[last])
        for u in (first,) if first == last else (first, last):
            tot["loaded_miles"] += loads.dist[u]
            tot["booked_miles"] += loads.dist[u]
            tot["booked"] += 1
        loads.alive[[first, last]] = False
        if not personalized:
            menu.remove(j)

    resolved = tot["booked"] + tot["salvaged"]
    loaded = tot["loaded_miles"]
    return {
        "cost_per_loaded_mile": tot["total_cost"] / loaded if loaded > 0 else 0.0,
        "avg_empty_miles": tot["empty_miles"] / resolved if resolved else 0.0,
        "unmet_deadline_rate": tot["salvaged"] / resolved if resolved else 0.0,
        **tot,
    }


def simulate(config: SimConfig, coeffs: FreightCoeffs, regions: RegionModel) -> SimMetrics:
    """Seeded multi-replication marketplace simulation.

    Replication r runs on seed XOR splitmix64(r); metrics are aggregated in
    replication order, so results are bit-identical for a fixed config. The
    samples hold one array per metric, in the order of _METRICS.
    """
    for key in ("pickup_pmf", "dropoff_pmf"):
        pmf = getattr(config.supply, key)
        if pmf is not None and len(pmf) != regions.n_regions:
            raise ConfigError(f"{key} has {len(pmf)} entries for {regions.n_regions} regions")
    samples = {k: np.empty(config.replications) for k in _METRICS}
    for r in range(config.replications):
        rep_seed = (config.seed ^ splitmix64(r)) & ((1 << 63) - 1)
        out = _run_replication(config, coeffs, regions, rep_seed)
        for k in _METRICS:
            samples[k][r] = out[k]
    return SimMetrics(samples=samples, confidence=config.confidence)


def demo_regions() -> RegionModel:
    """Four-city demo geometry (miles) with arrival shares resembling a
    large/small market mix."""
    return RegionModel(
        names=("SAT", "AUS", "DAL", "HOU"),
        centroids=np.array([[0.0, 0.0], [55.0, 70.0], [180.0, 245.0], [190.0, -15.0]]),
        arrival_pmf=np.array([0.11, 0.06, 0.45, 0.38]),
        ehat=np.array([45.0, 55.0, 35.0, 40.0]),
    )


def demo_sim_config(
    pricing: str,
    seed: int = 42,
    replications: int = 200,
    framework: str = "rolling_horizon",
    bundling: str = "greedy",
    choice_mode: str = "mnl",
) -> SimConfig:
    """The frozen two-pricing comparison setup: supply pressure high enough
    that bundle mispricing shows up in the unmet-deadline rate."""
    return SimConfig(
        supply=SupplyModel(rate=0.4, lifetime=(20, 40), scatter=12.0),
        horizon_periods=1500,
        seed=seed,
        replications=replications,
        framework=framework,
        bundling=bundling,
        pricing=pricing,
        choice_mode=choice_mode,
        arrival_prob=0.6,
        alpha=0.15,
        salvage_multiplier=1.5,
        rolling_period=15,
    )


def demo_coeffs(aversion: float = -2.0) -> FreightCoeffs:
    """Plausible demo calibration: utilities O(1) and positive dollar prices
    around two dollars per loaded mile at the demo geometry."""
    return FreightCoeffs(
        beta0=-3.5,
        beta_d=-0.002,
        beta_e=-0.010,
        beta_b=aversion,
        beta_p=0.01,
        beta_org=np.array([-0.15, -0.25, 0.15, 0.1]),
        beta_dst=np.array([-0.1, -0.2, 0.2, 0.1]),
    )
