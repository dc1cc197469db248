"""Error type shared by all qshift operations, and the integer check they share."""

import operator


class PreconditionError(ValueError):
    """Raised when an operation's input or precondition is violated.

    The message names the violated precondition. The CLI maps this
    exception to exit status 1.
    """


def integer(value, what: str) -> int:
    """``value`` as an int (numpy integers pass); 1.5, say, raises instead of truncating."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} {value!r} is not an integer") from None
