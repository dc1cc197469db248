"""Error type shared by all qshift operations, and the input checks they share.

Each input rule is written once here, and its message names the input it refuses:
``integer``, ``iterable``, ``register_wires``, ``disjoint``, ``tolerance`` and ``basis_label``.
"""

import math
import numbers
import operator
from typing import Iterable, Mapping, Sequence

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


def iterable(value, what: str, items: str = "wires") -> Iterable:
    """``value`` if it can be iterated; an int, say, raises instead of a bare TypeError."""
    if isinstance(value, Iterable):
        return value
    raise PreconditionError(f"{what} {value!r} are not an iterable of {items}")


def register_wires(value, what: str, num_wires: int | None = None) -> tuple[int, ...]:
    """The wires of register ``value`` as ints, in order, each in 0..num_wires-1 when that is given."""
    wires = tuple(integer(w, f"{what} wire") for w in iterable(value, f"{what} wires"))
    if num_wires is not None:
        for w in wires:
            if not 0 <= w < num_wires:
                raise PreconditionError(f"{what} wire {w} is off the state's {num_wires} wires")
    return wires


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


def basis_label(value, num_wires: int) -> int:
    """``value`` as a basis label of ``num_wires`` wires: an integer in 0..2**num_wires-1."""
    label = integer(value, "label")
    if not 0 <= label < (1 << num_wires):
        raise PreconditionError(f"label {label} out of range for {num_wires} wires")
    return label


def basis_labels(values, num_wires: int) -> np.ndarray:
    """:func:`basis_label` over an array, checking only its min and max; returns int64, copying no int64 input."""
    labels = np.asarray(values)
    if labels.dtype.kind not in "iu":  # refuse the first non-integer, which astype would truncate
        for label in labels.ravel().tolist():  # Python scalars, named as the scalar checks name them
            integer(label, "label")
    if labels.size:
        basis_label(labels.min(), num_wires)
        basis_label(labels.max(), num_wires)
    return labels.astype(np.int64, copy=False)
