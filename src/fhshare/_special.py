"""Scalar port of the Cephes special function the package needs.

lgam (log Gamma on x > 0) gives the Poisson user-count weights. It is a
line-for-line port of the Cephes routine behind scipy.special.gammaln,
evaluated with the same coefficients, in the same order, on math.log, so
it returns the same bits as scipy while keeping scipy off the import path
(tests/test_special.py checks this).
"""
from __future__ import annotations

import math


def _polevl(x: float, coef) -> float:
    """coef[0] x^n + ... + coef[n], in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """As _polevl with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_MAXLGM = 2.556348e305


def lgam(x: float) -> float:
    """log Gamma(x) for x > 0 (the user-count laws need x = n + 1)."""
    if not x > 0.0:
        raise ValueError(f"lgam takes x > 0, got {x!r}")
    if x < 13.0:
        # shift x into [2, 3) and keep the product of the shifts in z
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _B) / _p1evl(x, _C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _A) / x
    return q
