"""Exception types shared across the package."""


class CsawError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CsawError):
    """Arguments violate a documented precondition."""


class InvalidFormError(InvalidInputError):
    """A bilinear form is neither symmetric nor alternating (or is singular)."""


class NotAPowerError(CsawError):
    """A polynomial is not an exact n-th power."""


class UnsupportedFieldError(CsawError):
    """The operation is not available over this field (e.g. factorization over Q)."""


class NotEtaleError(CsawError):
    """An element has a non-squarefree minimal polynomial."""


class StructuralError(CsawError):
    """An internal consistency postcondition failed; the input object is not
    what it was declared to be (e.g. an algebra declared central simple is not)."""


class FieldTooSmallError(CsawError):
    """A seeded generic search exhausted its budget; the base field has too
    few points for the requested genericity.  Extending scalars usually helps."""


class ConstructionFailedError(CsawError):
    """A witness constructor could not meet its postcondition."""


class BudgetExceededError(CsawError):
    """An enumeration would exceed pointcount.ENUMERATION_BUDGET states."""
