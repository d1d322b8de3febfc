"""Brent's bracketing root finder, without scipy.

:func:`brentq` is a line-for-line port of the C routine behind
``scipy.optimize.brentq`` (``scipy/optimize/Zeros/brentq.c``): the same
float operations in the same order, so it returns the same double for
the same function, bracket and ``xtol``.  The STR steady-state solve
and the confinement fit call it on every :class:`~repro.fpga.board.Board`
and ring construction; porting it keeps ``scipy.optimize`` (half a
second of import time) out of every ``repro`` process.

The relative tolerance and the iteration cap are scipy's defaults
(``rtol = 4 eps``, ``maxiter = 100``); only ``xtol`` is an argument.
It keeps scipy's checks: ``xtol <= 0`` is a :class:`ValueError`, as are
end points whose function values share a sign and a NaN function value;
no convergence within 100 iterations is a :class:`RuntimeError`.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    The returned ``x`` is within ``xtol + 4 eps |x|`` of a sign change
    of ``f``.  Bit-equal to ``scipy.optimize.brentq(f, a, b, xtol=xtol)``.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
