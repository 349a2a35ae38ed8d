"""The package's public names."""

import rps


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
