"""Interestingness measures over pattern norms.

A measure is a base family (freq, area, decay(alpha), util, avgutil) combined
with an inclusive norm band [min_norm .. max_norm].  The norm factor f(ell)
below is the only part that varies with the pattern itself; item weights for
the util families enter through the instance, not here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ConfigurationError
from .model import WeightedItemset


class BaseMeasure(enum.Enum):
    FREQ = "freq"
    AREA = "area"
    DECAY = "decay"
    UTIL = "util"
    AVGUTIL = "avgutil"


_ITEMSET_BASES = frozenset({BaseMeasure.FREQ, BaseMeasure.AREA, BaseMeasure.DECAY})
_WEIGHTED_BASES = frozenset({BaseMeasure.UTIL, BaseMeasure.AVGUTIL})


@dataclass(frozen=True, slots=True)
class MeasureSpec:
    base: BaseMeasure
    alpha: float | None = None
    min_norm: int = 1
    max_norm: int | None = None

    def __post_init__(self):
        if self.base is BaseMeasure.DECAY:
            alpha = self.alpha  # None is refused by the range below
            if isinstance(alpha, bool) or not isinstance(alpha, (int, float, type(None))):
                raise ConfigurationError(f"alpha must be an int or a float, got {alpha!r}")
            if alpha is None or not 0.0 < alpha <= 1.0:
                raise ConfigurationError(f"decay needs alpha in (0, 1], got {alpha!r}")
        elif self.alpha is not None:
            raise ConfigurationError(f"{self.base.value} takes no alpha")
        if type(self.min_norm) is not int:  # a bool or a float too
            raise ConfigurationError(f"min_norm must be an int, got {self.min_norm!r}")
        if self.max_norm is not None and type(self.max_norm) is not int:
            raise ConfigurationError(f"max_norm must be an int, got {self.max_norm!r}")
        if self.min_norm < 1:
            raise ConfigurationError(f"min_norm must be >= 1, got {self.min_norm}")
        if self.max_norm is not None and self.max_norm < self.min_norm:
            raise ConfigurationError(
                f"max_norm {self.max_norm} < min_norm {self.min_norm}"
            )

    def norm_utility(self, ell: int) -> float:
        """Norm factor f(ell); 0 outside the [min_norm .. max_norm] band."""
        if ell < self.min_norm:
            return 0.0
        if self.max_norm is not None and ell > self.max_norm:
            return 0.0
        base = self.base
        if base is BaseMeasure.AREA:
            return float(ell)
        if base is BaseMeasure.DECAY:
            return self.alpha**ell
        if base is BaseMeasure.AVGUTIL:
            return 1.0 / ell
        return 1.0  # FREQ and UTIL

    def norm_cap(self, instance_norm: int) -> int:
        """Largest pattern norm a given instance can contribute."""
        if self.max_norm is None:
            return instance_norm
        return min(self.max_norm, instance_norm)

    def supports(self, variant: type) -> bool:
        """Whether this measure is defined for an instance variant:
        util/avgutil go with weighted itemsets, the rest with plain
        itemsets and sequences."""
        if issubclass(variant, WeightedItemset):
            return self.base in _WEIGHTED_BASES
        return self.base in _ITEMSET_BASES


def parse_measure(
    text: str, min_norm: int = 1, max_norm: int | None = None
) -> MeasureSpec:
    """Parse 'freq | area | decay:<alpha> | util | avgutil' (case-insensitive)."""
    name, sep, arg = text.strip().lower().partition(":")
    try:
        base = BaseMeasure(name)
    except ValueError:
        raise ConfigurationError(f"unknown measure {text!r}") from None
    alpha = None
    if base is BaseMeasure.DECAY:
        if not sep:
            raise ConfigurationError("decay needs an alpha, e.g. decay:0.5")
        try:
            alpha = float(arg)
        except ValueError:
            raise ConfigurationError(f"bad decay alpha {arg!r}") from None
    elif sep:
        raise ConfigurationError(f"{name} takes no argument, got {text!r}")
    return MeasureSpec(base, alpha, min_norm, max_norm)


def format_measure(spec: MeasureSpec) -> str:
    if spec.base is BaseMeasure.DECAY:
        return f"decay:{spec.alpha:g}"
    return spec.base.value
