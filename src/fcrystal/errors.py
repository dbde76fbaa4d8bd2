"""Exception taxonomy shared by every module.

InvalidInputError covers violated preconditions (bad primes, ranks that
do not match, characters that do not exist over the chosen field).
BoundExceededError is the subclass raised when a request is well formed
but larger than a configured size bound.  CapExceededError signals an
iteration cap (extension-degree search, solution recursion) that ran
out; it always carries the profile of what was tried so the caller can
report it.
"""


class FCrystalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FCrystalError, ValueError):
    """A precondition on user-supplied data was violated."""


class BoundExceededError(InvalidInputError):
    """The request is valid but exceeds a configured size bound."""


class CapExceededError(FCrystalError, RuntimeError):
    """An iteration cap was exhausted before the search finished."""

    def __init__(self, message: str, profile=None):
        super().__init__(message)
        self.profile = profile if profile is not None else []
