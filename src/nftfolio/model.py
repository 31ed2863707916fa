"""Domain types and file schemas shared by every pipeline stage.

The dataset file is the contract between the crawler and the analysis
stages: a JSON object mapping series names (collections) to lists of
per-token records, each holding parallel ``history`` (epoch seconds) and
``price`` arrays.  Every JSON file a stage writes is canonical
(``dump_json``: sorted keys, two-space indent, UTF-8) so that identical
data always produces identical bytes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

TOKEN_RE = re.compile(r"[a-zA-Z0-9]+\Z")
COLLECTION_ID_RE = re.compile(r"[A-Za-z0-9]+\Z")


class PipelineError(Exception):
    """Base class for domain errors; the CLI maps these to exit code 1."""


class SchemaError(PipelineError):
    """A dataset, cookie, fixture, result-store or other input file does not
    match its schema."""


def dump_json(obj) -> str:
    """Canonical JSON text, the one form every ``.json`` output is written
    in: sorted keys, two-space indent, UTF-8 kept as is, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_json(obj, path: str | Path) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def read_json(path: str | Path, what: str, top: type):
    """The JSON in ``path``.  Bad JSON, or a top level that is not a ``top``
    (list or dict), is a SchemaError naming ``what`` and the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} file {path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, top):
        kind = "a JSON object" if top is dict else "a list"
        raise SchemaError(f"{what} file {path}: top level is not {kind}")
    return obj


@dataclass(frozen=True)
class CollectionRef:
    """A marketplace collection as discovered from the overview endpoint."""

    collection_id: str
    collection_name: str
    volume: float
    internal_id: str | None = None

    def __post_init__(self) -> None:
        if not COLLECTION_ID_RE.match(self.collection_id):
            raise ValueError(f"collection_id must be non-empty alphanumeric: {self.collection_id!r}")
        if not (self.volume >= 0):
            raise ValueError(f"volume must be non-negative: {self.volume!r}")


@dataclass(frozen=True)
class TokenRef:
    """A single asset (token address) belonging to one series."""

    token: str
    series_name: str

    def __post_init__(self) -> None:
        if not TOKEN_RE.match(self.token):
            raise ValueError(f"token must be non-empty alphanumeric: {self.token!r}")


@dataclass(frozen=True)
class TradeEvent:
    """One raw marketplace activity row (any event type, not only sales)."""

    event_type: str
    block_time: int
    price: float


@dataclass(frozen=True)
class PriceSeries:
    """Parallel trade timestamps and prices for one token.

    A freshly fetched series may contain duplicates or junk prices; the
    cleaned form (see ``returns.clean_series``) has strictly increasing
    timestamps and strictly positive finite prices.
    """

    token: TokenRef
    timestamps: tuple[int, ...]
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", tuple(int(t) for t in self.timestamps))
        object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))
        if len(self.timestamps) != len(self.prices):
            raise ValueError(
                f"{self.token.token}: timestamps and prices differ in length "
                f"({len(self.timestamps)} vs {len(self.prices)})"
            )

    def __len__(self) -> int:
        return len(self.timestamps)

    def observations(self) -> list[tuple[int, float]]:
        return list(zip(self.timestamps, self.prices))


@dataclass(frozen=True)
class IntervalReturn:
    """One trade-to-trade interval: simple return, duration, and the
    equivalent per-second compounded rate."""

    simple_return: float
    delta_seconds: int
    adjusted_return: float


@dataclass(frozen=True)
class ReturnSummary:
    """Whole-history compounded return for one token."""

    token: TokenRef
    total_return: float
    interval_count: int


@dataclass(frozen=True)
class PortfolioAllocation:
    """Long-only weights over a list of assets plus the achieved Sharpe."""

    assets: tuple[TokenRef, ...]
    weights: tuple[float, ...]
    sharpe: float
    risk_free_rate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.assets) != len(self.weights):
            raise ValueError("assets and weights differ in length")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {sum(self.weights)!r}, expected 1 within 1e-9")
        if self.weights and min(self.weights) < -1e-12:
            raise ValueError(f"negative weight {min(self.weights)!r} below -1e-12")
        if not math.isfinite(self.sharpe):
            raise ValueError(f"sharpe must be finite: {self.sharpe!r}")


Dataset = dict[str, list[PriceSeries]]


def parse_dataset(text: str) -> Dataset:
    """Parse dataset JSON text into series lists of PriceSeries.

    Raises SchemaError naming the first malformed element.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"dataset: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise SchemaError("dataset: top level is not an object")
    dataset: Dataset = {}
    for series_name, records in raw.items():
        if not isinstance(records, list):
            raise SchemaError(f"dataset: series {series_name!r} is not a list")
        series_list: list[PriceSeries] = []
        for i, rec in enumerate(records):
            where = f"dataset: series {series_name!r} element {i}"
            if not isinstance(rec, dict):
                raise SchemaError(f"{where}: not an object")
            missing = {"token", "history", "price"} - rec.keys()
            if missing:
                raise SchemaError(f"{where}: missing key(s) {sorted(missing)}")
            token, history, price = rec["token"], rec["history"], rec["price"]
            if not isinstance(token, str):
                raise SchemaError(f"{where}: token is not a string")
            if not isinstance(history, list) or not isinstance(price, list):
                raise SchemaError(f"{where}: history/price are not lists")
            try:
                series_list.append(
                    PriceSeries(TokenRef(token, series_name), tuple(history), tuple(price))
                )
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{where}: {exc}") from exc
        dataset[series_name] = series_list
    return dataset


def serialize_dataset(dataset: Dataset) -> str:
    """Render a dataset to canonical JSON (sorted keys, stable float repr)."""
    obj = {
        name: [
            {
                "token": s.token.token,
                "history": list(s.timestamps),
                "price": [float(p) for p in s.prices],
            }
            for s in series_list
        ]
        for name, series_list in dataset.items()
    }
    return dump_json(obj)


def load_dataset(path: str | Path) -> Dataset:
    return parse_dataset(Path(path).read_text(encoding="utf-8"))


def validate_dataset(dataset: Dataset) -> list[str]:
    """Check dataset invariants; return one message per violation.

    An empty list means the dataset is well formed.  Checked per series:
    token uniqueness (within and across series), equal array lengths,
    strictly increasing positive timestamps, strictly positive finite
    prices.
    """
    violations: list[str] = []
    token_owner: dict[str, str] = {}
    for series_name, series_list in dataset.items():
        seen_here: set[str] = set()
        for s in series_list:
            tok = s.token.token
            label = f"{series_name}/{tok}"
            if tok in seen_here:
                violations.append(f"{label}: duplicate token within series")
            seen_here.add(tok)
            owner = token_owner.setdefault(tok, series_name)
            if owner != series_name:
                violations.append(f"{label}: token also appears in series {owner!r}")
            if len(s.timestamps) != len(s.prices):
                violations.append(f"{label}: length mismatch")
                continue
            if any(t <= 0 for t in s.timestamps):
                violations.append(f"{label}: non-positive timestamp")
            if any(b <= a for a, b in zip(s.timestamps, s.timestamps[1:])):
                violations.append(f"{label}: timestamps not strictly increasing")
            if any(not math.isfinite(p) or p <= 0 for p in s.prices):
                violations.append(f"{label}: non-positive or non-finite price")
    return violations

