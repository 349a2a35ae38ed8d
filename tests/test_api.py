"""The package's public names and the parameters of its main calls."""

import inspect

import pytest

import rps
from rps.formats import iter_batches


def test_public_names_are_pinned():
    # a name added to or dropped from rps.__all__ is an API change
    assert set(rps.__all__) == {
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
    }
    assert all(hasattr(rps, name) for name in rps.__all__)


# a parameter added to, dropped from or renamed in one of these calls is an
# API change
PARAMETERS = {
    rps.Batch: ["timestamp", "rows"],
    rps.ReservoirSampler: ["spec", "capacity", "damping", "seed"],
    rps.batch_weight: ["batch", "spec"],
    rps.sample_from_batch: ["batch", "spec", "count", "rng", "masses"],
    rps.draw_pattern_of_norm: ["z", "ell", "spec", "rng"],
    iter_batches: ["lines", "fmt", "catalog", "batch_size", "timestamps"],
}


@pytest.mark.parametrize("call", list(PARAMETERS), ids=lambda call: call.__name__)
def test_parameters_are_pinned(call):
    assert list(inspect.signature(call).parameters) == PARAMETERS[call]
