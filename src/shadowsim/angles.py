"""Parsing and formatting of angles given as plain radians or pi-expressions.

Accepted forms: ``1.25``, ``pi``, ``-pi``, ``pi/2``, ``3pi/4``, ``0.5pi``,
``2pi/3``.  No general arithmetic; this is a fixed little grammar so config
files and circuit descriptions stay declarative.
"""

from __future__ import annotations

import math
import re

_PI_EXPR = re.compile(
    r"""^\s*
    (?P<sign>[+-])?
    (?:
        (?P<coeff>\d+(?:\.\d+)?)?
        (?P<pi>pi)
        (?:/(?P<den>\d+(?:\.\d+)?))?
      |
        (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    )
    \s*$""",
    re.VERBOSE,
)


def parse_angle(text: str) -> float:
    """Return the value in radians of a literal or pi-expression.

    Raises ValueError with the offending text if it does not match.
    """
    m = _PI_EXPR.match(text)
    if m is None:
        raise ValueError(f"not a radian literal or pi-expression: {text!r}")
    sign = -1.0 if m.group("sign") == "-" else 1.0
    if m.group("pi"):
        value = math.pi
        if m.group("coeff"):
            value *= float(m.group("coeff"))
        if m.group("den"):
            den = float(m.group("den"))
            if den == 0.0:
                raise ValueError(f"zero denominator in pi-expression: {text!r}")
            value /= den
    else:
        value = float(m.group("num"))
    if not math.isfinite(value):
        raise ValueError(f"angle is not finite: {text!r}")
    return sign * value


def canonical_angle(value: float) -> float:
    """Reduce to [0, 2*pi).  Guards against the fmod edge case at 2*pi."""
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {value!r}")
    reduced = math.fmod(value, 2.0 * math.pi)
    if reduced < 0.0:
        reduced += 2.0 * math.pi
    if reduced >= 2.0 * math.pi:
        reduced -= 2.0 * math.pi
    return reduced
