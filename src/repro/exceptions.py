"""Exception types raised by the :mod:`repro` library.

Every error raised by library code derives from :class:`ReproError` so that
callers can catch library failures without also catching unrelated built-in
exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when an algorithm or generator is constructed with invalid parameters.

    Examples include a non-positive number of sites, an error parameter
    outside ``(0, 1)``, or a sketch with zero rows.
    """


class SpecError(ReproError, ValueError):
    """Raised when a run specification is invalid; the message names the field.

    Examples include an unknown tracker name, ``source.sites < 1``, or an
    unknown key in a spec document.  It is also a :class:`ValueError`, so
    callers that catch ``ValueError`` keep working.
    """


class ProtocolError(ReproError):
    """Raised when the distributed-monitoring protocol is used incorrectly.

    Examples include a site sending a message before the network is wired up,
    a coordinator broadcasting to an unknown site, or feeding updates to a
    finished simulation.
    """


class StreamError(ReproError):
    """Raised when a stream generator or update sequence is malformed.

    Examples include an update with a zero delta where ``+-1`` is required, or
    an item-stream deletion of an item that is not present.
    """


class QueryError(ReproError):
    """Raised when a historical or tracing query cannot be answered.

    Examples include querying a time before the start of the stream or after
    the most recent update.
    """
