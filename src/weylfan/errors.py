"""Domain errors raised by the library.

Every error carries a stable machine-readable ``code``, and its message is
``str(e)``, so the CLI emits ``{"error": code, "detail": str(e)}`` objects
without string matching.
"""


class WeylFanError(Exception):
    """Base class for all domain errors."""

    code = "Error"


class UnsupportedFamily(WeylFanError):
    code = "UnsupportedFamily"


class NotInSpan(WeylFanError):
    code = "NotInSpan"


class NotRootSpan(WeylFanError):
    code = "NotRootSpan"


class NotSurjective(WeylFanError):
    code = "NotSurjective"


class MissingPair(WeylFanError):
    code = "MissingPair"


class ViolatedTriples(WeylFanError):
    code = "ViolatedTriples"


class NoChartFound(WeylFanError):
    code = "NoChartFound"


class NotPreorder(WeylFanError):
    code = "NotPreorder"


class EmptyKeep(WeylFanError):
    code = "EmptyKeep"


class InternalCheckFailed(WeylFanError):
    """A result failed a self-check that holds for every valid input."""

    code = "InternalCheckFailed"


def internal_check(ok, detail):
    """Raise InternalCheckFailed unless ``ok``: an assert that ``-O`` keeps."""
    if not ok:
        raise InternalCheckFailed(detail)
