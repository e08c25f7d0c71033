"""Semantic exception hierarchy shared by every module.

The three leaf classes map one-to-one onto the command-line exit codes:
usage errors exit 1, data-format errors exit 2, numerical failures exit 3.
Each class also carries the label the command line prints before its
message.  ``check_finite`` is the one NaN/infinity check of config values,
and ``check_int`` the one integer check of config counts.
"""

import math
import numbers


class MarginLabError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class UsageError(MarginLabError, ValueError):
    """The caller violated an API contract (bad shapes, bad parameters)."""

    exit_code = 1
    label = "usage error"


class DataError(MarginLabError, ValueError):
    """Input data is malformed or inconsistent (non-finite logits,
    misaligned audits, unparseable files)."""

    exit_code = 2
    label = "data error"


class NumericalError(MarginLabError, ArithmeticError):
    """A computation failed numerically (degenerate fit, divergence,
    undefined statistic)."""

    exit_code = 3
    label = "numerical failure"


def check_finite(**values: float) -> None:
    """Raise ``UsageError`` naming the first of ``values`` that is NaN or
    infinite (``x < 0`` and ``x <= 0`` checks let NaN through)."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")


def check_int(**values: int) -> None:
    """Raise ``UsageError`` naming the first of ``values`` that is not a
    Python or numpy integer: bools, floats and NaN are rejected (``x < 1``
    lets NaN through, and a float count fails later inside numpy)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise UsageError(f"{name} must be an integer, got {value!r}")
