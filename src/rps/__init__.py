"""Reservoir pattern sampling over batched streams.

Maintain a fixed-size sample of patterns (itemsets, weighted itemsets,
subsequences) such that after any stream prefix each reservoir slot is an
independent draw from the norm-weighted, optionally time-damped pattern
distribution of everything seen so far.
"""

from .engine import BatchReport, ReservoirSampler, sample_from_batch
from .errors import (
    ConfigurationError,
    ParseError,
    ReservoirNotReady,
    RpsError,
    StreamOrderError,
    WeightOverflowError,
)
from .measures import BaseMeasure, MeasureSpec, format_measure, parse_measure
from .model import (
    Batch,
    Catalog,
    Instance,
    Pattern,
    PlainItemset,
    Sequence,
    WeightedItemset,
    matches,
    pattern,
    plain_itemset,
    sequence,
    weighted_itemset,
)
from .weighting import batch_weight, draw_pattern_of_norm, instance_weight, weight_table

__version__ = "0.1.0"

__all__ = [
    "BaseMeasure",
    "Batch",
    "BatchReport",
    "Catalog",
    "ConfigurationError",
    "Instance",
    "MeasureSpec",
    "ParseError",
    "Pattern",
    "PlainItemset",
    "ReservoirNotReady",
    "ReservoirSampler",
    "RpsError",
    "Sequence",
    "StreamOrderError",
    "WeightOverflowError",
    "WeightedItemset",
    "batch_weight",
    "draw_pattern_of_norm",
    "format_measure",
    "instance_weight",
    "matches",
    "parse_measure",
    "pattern",
    "plain_itemset",
    "sample_from_batch",
    "sequence",
    "weight_table",
    "weighted_itemset",
    "__version__",
]
