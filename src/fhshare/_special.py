"""Scalar ports of the two Cephes special functions the package needs.

ndtri (the standard normal quantile) sets entropy_quadrature's window and
lgam (log Gamma on x > 0) gives the Poisson user-count weights. Both are
line-for-line ports of the Cephes routines behind scipy.special.ndtri and
scipy.special.gammaln, evaluated with the same coefficients, in the same
order, on math.log/math.sqrt, so they return the same bits as scipy while
keeping scipy off the import path (tests/test_special.py checks this).
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


_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# |y - 1/2| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z = sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# z in [8, 64]
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def ndtri(y0: float) -> float:
    """x with Phi(x) = y0 for the standard normal cdf Phi; -inf at 0, inf
    at 1 and nan outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


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
