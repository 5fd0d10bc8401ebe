"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: domain and configuration errors
exit 2, resource ceilings exit 3.
"""


class HamextError(Exception):
    """Base class for all package errors."""


class DomainError(HamextError):
    """An argument is outside the operation's domain (lengths included)."""


class ConfigError(HamextError):
    """Inconsistent configuration (schedules, targets, CLI options)."""


class ResourceError(HamextError):
    """An exhaustive computation would exceed its configured ceiling."""
