"""Shared exception types, and the order cap behind OrderCapError.

Everything derives from ValueError so callers that do not care about the
distinction can catch one base class.
"""


class SingularMatrixError(ValueError):
    """Matrix has determinant zero where an inverse was required."""


class NotZMatrixError(ValueError):
    """Operation is only defined for Z-matrices (off-diagonal entries <= 0)."""


class NotInverseCyclicError(ValueError):
    """Matrix does not satisfy the inverse cyclic case-equations."""


class OrderCapError(ValueError):
    """Matrix order exceeds the cap for an exponential enumeration."""


# Default order cap shared by the principal-minor sweeps and path enumeration.
ORDER_CAP = 12


def check_order_cap(n: int, cap: int) -> None:
    """Raise OrderCapError when an exponential enumeration would run at order n > cap."""
    if n > cap:
        raise OrderCapError(
            f"order {n} exceeds the enumeration cap {cap}; raise the cap explicitly to proceed"
        )


class MatrixParseError(ValueError):
    """Malformed matrix text. Carries a 1-based line and column when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
