"""Marketplace trade-history crawler plus return analysis and max-Sharpe
portfolio construction, with a deterministic replay server for testing."""

__version__ = "0.1.0"

from .model import (
    CollectionRef,
    Dataset,
    IntervalReturn,
    PipelineError,
    PortfolioAllocation,
    PriceSeries,
    ReturnSummary,
    SchemaError,
    TokenRef,
    TradeEvent,
)

__all__ = [
    "CollectionRef",
    "Dataset",
    "IntervalReturn",
    "PipelineError",
    "PortfolioAllocation",
    "PriceSeries",
    "ReturnSummary",
    "SchemaError",
    "TokenRef",
    "TradeEvent",
    "__version__",
]
