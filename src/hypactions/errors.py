"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    pass


class BudgetExceeded(ToolkitError):
    """A search or enumeration hit its configured cap.

    `extent` describes how far the search got.
    """

    def __init__(self, message, extent=None):
        super().__init__(message)
        self.extent = extent


class DomainMiss(ToolkitError, KeyError):
    """A pseudo-length or metric was queried outside its materialized domain."""

    def __init__(self, element):
        super().__init__(f"element outside materialized domain: {element!r}")


class NotLoxodromic(ToolkitError, ValueError):
    pass


class CertificateError(ToolkitError, ValueError):
    """Raised when an anisotropy certificate cannot be emitted.

    `reason` is one of "zero-value", "not-subordinate" or
    "witness-outside-ball".
    """

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
