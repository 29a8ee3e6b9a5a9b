"""Domain types: items, bundle options, option sets, customer models.

Options are ordered sequences of distinct item ids everywhere, because
ordering can change a bundle's perceived quality (delivery order in a
freight bundle, display order in retail). An OptionSet is a pure-bundling
assortment: every item of the instance belongs to exactly one option.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    ConfigError,
    DimensionMismatch,
    DomainError,
    PartitionMismatch,
    UnknownScenario,
    config_errors,
)
from .numerics import log_sum_exp

DEFAULT_OPTION_CAP = 200_000


@dataclass(frozen=True)
class FreightItemData:
    """Geometry and deadline of a freight load, coordinates in miles."""

    pickup: tuple[float, float]
    dropoff: tuple[float, float]
    expiration: int

    def __post_init__(self):
        for name in ("pickup", "dropoff"):
            point = getattr(self, name)
            if not (isinstance(point, (tuple, list)) and len(point) == 2 and all(
                isinstance(x, numbers.Real) and math.isfinite(x) for x in point
            )):
                raise DomainError(f"{name} must be two finite numbers, got {point}")

    @property
    def loaded_miles(self) -> float:
        dx = self.dropoff[0] - self.pickup[0]
        dy = self.dropoff[1] - self.pickup[1]
        return math.hypot(dx, dy)


@dataclass(frozen=True)
class Item:
    id: int
    salvage: float = 0.0
    features: Optional[tuple[float, float]] = None
    freight: Optional[FreightItemData] = None

    def __post_init__(self):
        if not math.isfinite(self.salvage):
            raise DomainError("salvage must be finite")


@dataclass(frozen=True)
class BundleOption:
    """An ordered sequence of distinct item ids sold as one unit."""

    items: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) == 0:
            raise DomainError("an option holds at least one item")
        if len(set(self.items)) != len(self.items):
            raise DomainError(f"repeated item in option {self.items}")

    @property
    def cardinality(self) -> int:
        return len(self.items)


def _as_option(obj) -> BundleOption:
    if isinstance(obj, BundleOption):
        return obj
    if isinstance(obj, int):
        return BundleOption((obj,))
    return BundleOption(tuple(obj))


@dataclass(frozen=True)
class OptionSet:
    """A partition of the instance's items into options."""

    options: tuple[BundleOption, ...]

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(_as_option(o) for o in self.options))

    def __iter__(self):
        return iter(self.options)

    def __len__(self):
        return len(self.options)

    @property
    def bundle_count(self) -> int:
        return sum(1 for o in self.options if o.cardinality > 1)

    def item_ids(self) -> list[int]:
        out = []
        for o in self.options:
            out.extend(o.items)
        return out

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Deterministic encoding used for tie-breaking between partitions."""
        return tuple(sorted(o.items for o in self.options))

    def validate(self, instance: "MarketInstance") -> None:
        ids = self.item_ids()
        want = sorted(it.id for it in instance.items)
        if sorted(ids) != want:
            raise PartitionMismatch(
                f"options cover items {sorted(ids)}, instance has {want}"
            )
        if self.bundle_count > instance.max_bundles:
            raise PartitionMismatch(
                f"{self.bundle_count} bundles exceed the limit of {instance.max_bundles}"
            )
        oversize = [o.items for o in self.options if o.cardinality > instance.max_bundle_size]
        if oversize:
            raise PartitionMismatch(f"options too large: {oversize}")


def singletons(instance: "MarketInstance") -> OptionSet:
    """The no-bundle option set S0."""
    return OptionSet(tuple(BundleOption((it.id,)) for it in instance.items))


def sub_instance(instance: "MarketInstance", item_ids) -> "MarketInstance":
    """Same market restricted to a subset of items (customer model shared)."""
    keep = set(item_ids)
    return MarketInstance(
        items=tuple(it for it in instance.items if it.id in keep),
        customer=instance.customer,
        demand=instance.demand,
        arrival_prob=instance.arrival_prob,
        max_bundles=instance.max_bundles,
        max_bundle_size=instance.max_bundle_size,
    )


@dataclass(frozen=True, eq=False)
class CustomerModel:
    """Customer types, their arrival distribution, and perceived quality.

    quality(option) returns the option's perceived quality for every
    customer type: a deterministic callable from a BundleOption to one float
    per type, in `types` order. For non-MNL choice models plugged in
    elsewhere, the caller is responsible for the regularity of the pricing
    map (well-defined, non-decreasing optimal price in the marginal value);
    it cannot be verified symbolically here.

    The model is frozen, and arrival_pmf is a read-only copy of the array
    passed in, so what is computed from a model stays valid for it.
    """

    types: tuple
    arrival_pmf: np.ndarray
    price_sensitivity: float
    quality: Callable[[BundleOption], Sequence[float]]

    def __post_init__(self):
        pmf = np.array(self.arrival_pmf, dtype=float)
        pmf.flags.writeable = False
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "arrival_pmf", pmf)
        if self.arrival_pmf.shape != (len(self.types),):
            raise DimensionMismatch("arrival_pmf length must match types")
        if np.any(self.arrival_pmf < 0) or abs(self.arrival_pmf.sum() - 1.0) > 1e-12:
            raise DomainError("arrival_pmf must be a probability distribution")
        if self.price_sensitivity == 0:
            raise DomainError("price_sensitivity must be nonzero")

    @property
    def n_types(self) -> int:
        return len(self.types)

    def quality_matrix(self, options: Sequence[BundleOption]) -> np.ndarray:
        """Qualities as an (n_types, n_options) array, one quality call per
        option. Raises DimensionMismatch when a call does not return one
        value per type."""
        q = np.empty((self.n_types, len(options)))
        for j, o in enumerate(options):
            v = np.asarray(self.quality(o), dtype=float)
            if v.shape != (self.n_types,):
                raise DimensionMismatch(
                    f"quality of option {o.items} has shape {v.shape}, expected "
                    f"({self.n_types},): one value per customer type"
                )
            q[:, j] = v
        return q


@dataclass(frozen=True, eq=False)
class MarketInstance:
    """A market: unique items, a customer model, and season parameters.

    The market is frozen (its customer model too), so a record computed
    from it once, such as the bundle task's option pool, stays valid for
    it; a different market is a new instance (see sub_instance)."""

    items: tuple[Item, ...]
    customer: CustomerModel
    demand: float
    arrival_prob: float
    max_bundles: int
    max_bundle_size: int

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        ids = [it.id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ConfigError("item ids must be unique")
        if self.demand < 0:
            raise DomainError("demand must be nonnegative")
        if not 0 < self.arrival_prob <= 1:
            raise DomainError("arrival_prob must lie in (0, 1]")
        if self.max_bundle_size < 1 or self.max_bundles < 0:
            raise DomainError("need max_bundle_size >= 1 and max_bundles >= 0")

    @property
    def horizon(self) -> int:
        # the slack keeps a mathematically integral ratio such as 0.3/0.1
        # (2.9999999999999996 in floating point) from losing a period
        return int(math.floor(self.demand / self.arrival_prob + 1e-9))

    @property
    def n_items(self) -> int:
        return len(self.items)

    def items_by_id(self) -> dict[int, Item]:
        return {it.id: it for it in self.items}

    def salvage_vector(self, options: Sequence[BundleOption]) -> np.ndarray:
        by_id = self.items_by_id()
        return np.array(
            [sum(by_id[i].salvage for i in o.items) for o in options], dtype=float
        )


@dataclass(frozen=True)
class ChoiceVector:
    """Per-option acceptance probabilities plus the no-purchase mass."""

    probs: np.ndarray
    outside: float

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    @property
    def total(self) -> float:
        return float(self.probs.sum() + self.outside)


def option_count(n_items: int, max_bundle_size: int) -> int:
    """Number of ordered sequences of distinct items with length 1..K_b."""
    total = 0
    for k in range(1, max_bundle_size + 1):
        total += math.perm(n_items, k)
    return total


def enumerate_options(
    instance: MarketInstance, cap: int = DEFAULT_OPTION_CAP
) -> list[BundleOption]:
    """All ordered sequences of distinct items with length 1..K_b.

    Deterministic order: by length, then lexicographic on sorted item ids.
    Raises CapExceeded before generating anything if the count is too large.
    """
    n = option_count(instance.n_items, instance.max_bundle_size)
    if n > cap:
        raise CapExceeded(f"{n} options exceed the cap of {cap}")
    ids = sorted(it.id for it in instance.items)
    out: list[BundleOption] = []
    for k in range(1, instance.max_bundle_size + 1):
        for combo in itertools.permutations(ids, k):
            out.append(BundleOption(combo))
    return out


def _utilities(customer: CustomerModel, options, prices, type_index) -> np.ndarray:
    if not 0 <= type_index < customer.n_types:
        raise DomainError(f"type_index {type_index} outside 0..{customer.n_types - 1}")
    prices = np.asarray(prices, dtype=float)
    q = customer.quality_matrix(options)[type_index]
    return q + customer.price_sensitivity * prices


def mnl_choice(customer: CustomerModel, options, prices, type_index: int) -> ChoiceVector:
    """MNL acceptance probabilities for one customer type, shift-stable.
    Kept, with extended_choice, as the per-type reference that tests check
    the solvers' array forms against."""
    opts = [_as_option(o) for o in options]
    v = _utilities(customer, opts, prices, type_index)
    m = max(0.0, float(np.max(v))) if v.size else 0.0
    ev = np.exp(v - m)
    denom = np.exp(-m) + ev.sum()
    return ChoiceVector(probs=ev / denom, outside=float(np.exp(-m) / denom))


def extended_choice(
    customer: CustomerModel, options, prices, availability, type_index: int
) -> np.ndarray:
    """Choice probabilities extended to real-valued availability of the rivals.

    Each option's own term enters the denominator fully (the probability is
    conditioned on its availability); rivals are weighted by their
    availability. At a 0/1 availability vector this reduces to mnl_choice on
    the available subset.
    """
    opts = [_as_option(o) for o in options]
    a = np.asarray(availability, dtype=float)
    if a.shape != (len(opts),):
        raise DomainError("availability must have one entry per option")
    if np.any(a < -1e-12) or np.any(a > 1 + 1e-12):
        raise DomainError("availability entries must lie in [0, 1]")
    v = _utilities(customer, opts, prices, type_index)
    m = max(0.0, float(np.max(v))) if v.size else 0.0
    ev = np.exp(v - m)
    base = np.exp(-m) + float(np.dot(a, ev))
    return ev / (base + (1.0 - a) * ev)


def aggregated_quality(customer: CustomerModel, option) -> float:
    """kappa_i = ln E_X[e^{q_i^X}], a weighted log-sum-exp across types."""
    return log_sum_exp(customer.quality(_as_option(option)), customer.arrival_pmf)


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

SCENARIOS = ("bounds-two-type", "A", "B", "C")


def _scenario_quality(scenario: str, beta: float, features):
    """Quality callable of the built-in scenarios: both types' qualities of
    an option.

    features[id] holds the two intrinsic qualities (a, b) of an item; type 1
    of the bundling scenarios values their average while type 2 varies by
    scenario.
    """
    if scenario not in SCENARIOS:
        raise UnknownScenario(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    def q(option: BundleOption) -> tuple[float, float]:
        sa = float(sum(features[i][0] for i in option.items))
        sb = float(sum(features[i][1] for i in option.items))
        if scenario == "bounds-two-type":
            return beta * (sa + 0.5 * sb), beta * (0.5 * sa + sb)
        if scenario == "A":
            second = beta * sa
        elif scenario == "B":
            second = 2.0 * beta * min(sa, sb)
        else:
            second = beta * sa**1.5
        return 0.5 * beta * (sa + sb), second

    return q


def generate_synthetic(
    seed: int,
    count: int,
    scenario: str = "bounds-two-type",
    beta: float = 1.0,
    *,
    demand: Optional[float] = None,
    arrival_prob: float = 0.1,
    beta_p: float = -1.0,
    max_bundles: Optional[int] = None,
    max_bundle_size: int = 2,
    salvage: float = 0.0,
) -> MarketInstance:
    """Deterministic synthetic market with two customer types.

    Intrinsic qualities are iid uniform(0,1) per item; the per-type
    perceived-quality formulas are fixed by the scenario name. demand
    defaults to one expected arrival per item.
    """
    if count < 1:
        raise DomainError(f"a synthetic market needs at least one item, got {count}")
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, size=(count, 2))
    items = tuple(
        Item(id=i, salvage=salvage, features=(float(features[i, 0]), float(features[i, 1])))
        for i in range(count)
    )
    customer = CustomerModel(
        types=(1, 2),
        arrival_pmf=np.array([0.5, 0.5]),
        price_sensitivity=beta_p,
        quality=_scenario_quality(scenario, beta, {it.id: it.features for it in items}),
    )
    return MarketInstance(
        items=items,
        customer=customer,
        demand=float(count) if demand is None else float(demand),
        arrival_prob=arrival_prob,
        max_bundles=count if max_bundles is None else max_bundles,
        max_bundle_size=max_bundle_size,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def instance_to_json(instance: MarketInstance, quality_spec: dict) -> str:
    """Serialize an instance; quality_spec names a built-in scenario or a
    freight coefficient block (callables themselves are not serialized)."""
    doc = {
        "items": [
            {
                "id": it.id,
                "salvage": it.salvage,
                **({"features": list(it.features)} if it.features else {}),
                **(
                    {
                        "freight": {
                            "pickup": list(it.freight.pickup),
                            "dropoff": list(it.freight.dropoff),
                            "expiration": it.freight.expiration,
                        }
                    }
                    if it.freight
                    else {}
                ),
            }
            for it in instance.items
        ],
        "customer": {
            "types": list(instance.customer.types),
            "pmf": instance.customer.arrival_pmf.tolist(),
            "beta_p": instance.customer.price_sensitivity,
            "quality_spec": quality_spec,
        },
        "lambda": instance.demand,
        "mu": instance.arrival_prob,
        "ks": instance.max_bundles,
        "kb": instance.max_bundle_size,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def instance_from_json(text: str) -> MarketInstance:
    """Parse an instance written by instance_to_json. Malformed JSON, a
    missing key, a negative item id or a freight file whose customer block
    disagrees with its freight block raise ConfigError."""
    with config_errors("instance JSON"):
        return _instance_from_doc(json.loads(text))


def _instance_from_doc(doc: dict) -> MarketInstance:
    items = []
    for d in doc["items"]:
        freight = None
        if "freight" in d:
            f = d["freight"]
            try:
                freight = FreightItemData(
                    pickup=tuple(f["pickup"]),
                    dropoff=tuple(f["dropoff"]),
                    expiration=int(f["expiration"]),
                )
            except DomainError as exc:
                raise ConfigError(f"item {d['id']}: {exc}") from exc
        item = Item(
            id=int(d["id"]),
            salvage=float(d.get("salvage", 0.0)),
            features=tuple(d["features"]) if "features" in d else None,
            freight=freight,
        )
        if item.id < 0:
            raise ConfigError(f"item ids must be nonnegative, got {item.id}")
        items.append(item)
    items = tuple(items)
    cust = doc["customer"]
    spec = cust["quality_spec"]
    season = dict(demand=float(doc["lambda"]), arrival_prob=float(doc["mu"]),
                  max_bundles=int(doc["ks"]), max_bundle_size=int(doc["kb"]))
    if "scenario" in spec:
        for it in items:
            f = it.features
            if f is None or len(f) != 2 or not all(
                type(x) in (int, float) and math.isfinite(x) for x in f
            ):
                raise ConfigError(f"item {it.id} needs two finite numeric features, got {f}")
        features = {it.id: it.features for it in items}
        quality = _scenario_quality(spec["scenario"], float(spec.get("beta", 1.0)), features)
    elif "freight" in spec:
        from .freight import FreightCoeffs, RegionModel, freight_instance

        block = spec["freight"]
        coeffs = FreightCoeffs.from_dict(block["coeffs"])
        regions = RegionModel.from_dict(block["regions"])
        # the freight block is the copy that is priced, so the customer
        # block's types, pmf and beta_p must agree with it
        if tuple(cust["types"]) != regions.names:
            raise ConfigError(f"customer types {list(cust['types'])} differ from the "
                              f"freight region names {list(regions.names)}")
        pmf = np.asarray(cust["pmf"], dtype=float)
        if pmf.shape != regions.arrival_pmf.shape or not np.all(
            np.abs(pmf - regions.arrival_pmf) <= 1e-12
        ):
            raise ConfigError(f"customer pmf {pmf.tolist()} differs from the freight "
                              f"regions' arrival_pmf {regions.arrival_pmf.tolist()}")
        if float(cust["beta_p"]) != coeffs.beta_p:
            raise ConfigError(f"customer beta_p {cust['beta_p']} differs from the freight "
                              f"coeffs' beta_p {coeffs.beta_p}")
        return freight_instance(items, coeffs, regions, **season)
    else:
        raise UnknownScenario(f"unrecognized quality_spec: {spec}")
    customer = CustomerModel(
        types=tuple(cust["types"]),
        arrival_pmf=np.asarray(cust["pmf"], dtype=float),
        price_sensitivity=float(cust["beta_p"]),
        quality=quality,
    )
    return MarketInstance(items=items, customer=customer, **season)
