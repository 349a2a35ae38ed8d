"""Regularized incomplete beta function and binomial tail draws.

I_x(a, b) is evaluated with the continued fraction

                x^a (1-x)^b    1  [ d_1 d_2     ]
  I_x(a, b) = ------------- * --- [ --- --- ... ]
               a B(a, b)      1+  [ 1+  1+      ]

using the modified Lentz scheme, switching to 1 - I_{1-x}(b, a) when x is
past (a + 1) / (a + b + 2) so the fraction converges fast on both sides.

The binomial tail P(Bin(k, p) >= n) equals I_p(n, k - n + 1); for small k a
direct summation of the mass function is at least as accurate, so it is used
below a crossover and doubles as an independent check of the continued
fraction in tests.
"""

from __future__ import annotations

import math

from .errors import RpsError

_EPS = 1e-14
_FPMIN = 1e-300

# crossover between direct summation and the continued fraction
_DIRECT_MAX_TRIALS = 64


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), modified Lentz scheme.  It takes
    O(sqrt(max(a, b))) terms on the side where it is used, so its limit
    grows with a + b: up to 3462 terms at the largest capacity."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 301 + math.isqrt(int(qab))):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RpsError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def binomial_survival_direct(n: int, k: int, p: float) -> float:
    """P(Bin(k, p) >= n) by exact summation of the mass function."""
    if n <= 0:
        return 1.0
    if n > k:
        return 0.0
    q = 1.0 - p
    return math.fsum(
        math.comb(k, i) * p**i * q ** (k - i) for i in range(n, k + 1)
    )


def binomial_survival(n: int, k: int, p: float) -> float:
    """P(Bin(k, p) >= n); equals I_p(n, k - n + 1) for 1 <= n <= k."""
    if k < 0:
        raise ValueError(f"trial count must be >= 0, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p}")
    if n <= 0:
        return 1.0
    if n > k:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    if k <= _DIRECT_MAX_TRIALS:
        return binomial_survival_direct(n, k, p)
    return reg_inc_beta(n, k - n + 1, p)


def _largest_above(k: int, p: float, threshold: float) -> int:
    # largest m in [0 .. k] with P(Bin(k, p) >= m) >= threshold;
    # the survival is non-increasing in m and equals 1 at m = 0
    lo, hi = 0, k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if binomial_survival(mid, k, p) >= threshold:
            lo = mid
        else:
            hi = mid - 1
    return lo


def realisations_from_uniform(k: int, p: float, x: float) -> int:
    """Inverse-CDF draw of Bin(k, p) from one uniform; 0 means rejection.

    Returns the largest m in [0 .. k] with P(Bin(k, p) >= m) >= x.  Over a
    uniform x this reproduces the Bin(k, p) law exactly, so each reservoir
    slot is replaced with probability exactly p (the count is m and the
    batch is accepted iff m >= 1).
    """
    if type(k) is not int:  # a float k would bisect between ints forever
        raise ValueError(f"reservoir capacity must be an int, got {k!r}")
    if k < 1:
        raise ValueError(f"reservoir capacity must be >= 1, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"acceptance probability must be in [0, 1], got {p}")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"uniform {x} is not in [0, 1)")
    if p == 0.0:
        return 0
    # rejection needs one survival evaluation, not a search
    if binomial_survival(1, k, p) < x:
        return 0
    return _largest_above(k, p, x)
