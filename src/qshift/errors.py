"""Error type shared by all qshift operations, and the input checks they share."""

import math
import numbers
import operator
from typing import Mapping, Sequence

import numpy as np


class PreconditionError(ValueError):
    """Raised when an operation's input or precondition is violated.

    The message names the violated precondition. The CLI maps this
    exception to exit status 1.
    """


def integer(value, what: str) -> int:
    """``value`` as an int (numpy integers pass); 1.5 or a bool, say, raises instead of converting."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise PreconditionError(f"{what} {value!r} is not an integer")


def tolerance(value, what: str) -> float:
    """``value`` as a float if it is a finite nonnegative real number; NaN, infinities,
    negatives and non-numbers raise instead of skewing a comparison."""
    if isinstance(value, numbers.Real) and 0.0 <= value < math.inf:  # NaN fails both comparisons
        return float(value)
    raise PreconditionError(f"{what} {value!r} must be finite and nonnegative")


def disjoint(groups: Mapping[str, Sequence[int]]) -> None:
    """Refuse named wire groups that share a wire, naming the later group and the earlier one."""
    seen: dict[int, str] = {}
    for name, wires in groups.items():
        for w in wires:
            if w in seen:
                raise PreconditionError(f"wires of {name!r} overlap {seen[w]!r}")
            seen[w] = name
