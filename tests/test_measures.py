"""Measure grammar, norm factors."""

import re

import pytest

from rps.errors import ConfigurationError
from rps.measures import (
    BaseMeasure,
    MeasureSpec,
    format_measure,
    parse_measure,
)
from rps.model import plain_itemset, sequence, weighted_itemset

from conftest import A, B, C


def test_norm_factors():
    assert MeasureSpec(BaseMeasure.FREQ).norm_utility(5) == 1.0
    assert MeasureSpec(BaseMeasure.AREA).norm_utility(5) == 5.0
    assert MeasureSpec(BaseMeasure.DECAY, alpha=0.5).norm_utility(3) == 0.125
    assert MeasureSpec(BaseMeasure.UTIL).norm_utility(7) == 1.0
    assert MeasureSpec(BaseMeasure.AVGUTIL).norm_utility(4) == 0.25


def test_norm_band_zeroes_outside():
    spec = MeasureSpec(BaseMeasure.AREA, min_norm=2, max_norm=3)
    assert spec.norm_utility(1) == 0.0
    assert spec.norm_utility(2) == 2.0
    assert spec.norm_utility(3) == 3.0
    assert spec.norm_utility(4) == 0.0
    assert spec.norm_cap(10) == 3
    assert MeasureSpec(BaseMeasure.FREQ).norm_cap(10) == 10


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        MeasureSpec(BaseMeasure.DECAY)  # alpha required
    with pytest.raises(ConfigurationError):
        MeasureSpec(BaseMeasure.DECAY, alpha=0.0)
    with pytest.raises(ConfigurationError):
        MeasureSpec(BaseMeasure.DECAY, alpha=1.5)
    with pytest.raises(ConfigurationError):
        MeasureSpec(BaseMeasure.FREQ, alpha=0.5)
    with pytest.raises(ConfigurationError):
        MeasureSpec(BaseMeasure.FREQ, min_norm=0)
    with pytest.raises(ConfigurationError):
        MeasureSpec(BaseMeasure.FREQ, min_norm=3, max_norm=2)
    # the first weight table used to raise TypeError from range()
    bad = (("min_norm", 1.5), ("min_norm", True), ("max_norm", 2.5), ("max_norm", "3"))
    for bound, value in bad:
        with pytest.raises(ConfigurationError, match=f"{bound} must be an int, got {value!r}"):
            MeasureSpec(BaseMeasure.FREQ, **{bound: value})
    # refused by type before the range test, which would raise TypeError or take True as 1
    for alpha in ("0.5", True, [0.5]):
        message = f"alpha must be an int or a float, got {alpha!r}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            MeasureSpec(BaseMeasure.DECAY, alpha=alpha)
    with pytest.raises(ConfigurationError, match=r"decay needs alpha in \(0, 1\], got None"):
        MeasureSpec(BaseMeasure.DECAY, alpha=None)
    assert MeasureSpec(BaseMeasure.DECAY, alpha=1).alpha == 1


def test_parse_and_format():
    assert parse_measure("freq") == MeasureSpec(BaseMeasure.FREQ)
    assert parse_measure("AREA") == MeasureSpec(BaseMeasure.AREA)
    assert parse_measure("decay:0.5") == MeasureSpec(BaseMeasure.DECAY, alpha=0.5)
    assert parse_measure("util", 2, 5) == MeasureSpec(BaseMeasure.UTIL, None, 2, 5)
    assert format_measure(parse_measure("decay:0.25")) == "decay:0.25"
    for text in ("freq", "area", "decay:0.5", "util", "avgutil"):
        assert format_measure(parse_measure(text)) == text
    with pytest.raises(ConfigurationError):
        parse_measure("support")
    with pytest.raises(ConfigurationError):
        parse_measure("decay")  # missing alpha
    with pytest.raises(ConfigurationError):
        parse_measure("decay:x")
    with pytest.raises(ConfigurationError):
        parse_measure("freq:2")


def test_variant_support():
    plain = plain_itemset([A, B])
    weighted = weighted_itemset({A: 1.0})
    seq = sequence([[A], [B, C]])
    for text in ("freq", "area", "decay:0.5"):
        spec = parse_measure(text)
        assert spec.supports(type(plain)) and spec.supports(type(seq))
        assert not spec.supports(type(weighted))
    for text in ("util", "avgutil"):
        spec = parse_measure(text)
        assert spec.supports(type(weighted))
        assert not spec.supports(type(plain)) and not spec.supports(type(seq))
