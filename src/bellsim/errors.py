"""Semantic exception hierarchy. Public functions never raise bare ValueError."""


class BellSimError(Exception):
    """Base error for this package."""


class DomainError(BellSimError, ValueError):
    """Inputs violate an operation's contract (empty data, bad outcomes, invalid state)."""


class ConfigError(BellSimError, ValueError):
    """Malformed model/run specification: unknown keys, bad parameters, unparsable files."""


class NumericError(BellSimError, ArithmeticError):
    """Numerical routine failed to meet its tolerance (solver breakdown, inexact rounding)."""
