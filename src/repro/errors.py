"""Exception hierarchy for the FreePhish reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Submodules raise the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigError(ReproError):
    """Invalid simulation or model configuration."""


class URLError(ReproError):
    """A URL string could not be parsed or is structurally invalid."""


class DNSError(ReproError):
    """Domain resolution or registration failure in the simulated DNS."""


class DomainTakenError(DNSError):
    """Attempted to register a domain or subdomain that already exists."""


class UnknownDomainError(DNSError):
    """Lookup of a domain that was never registered."""


class CertificateError(ReproError):
    """Certificate issuance or validation failure."""


class FetchError(ReproError):
    """The simulated browser could not fetch a resource."""


class SiteRemovedError(FetchError):
    """The requested website has been taken down by its host."""


class ParseError(ReproError):
    """Malformed HTML that the tolerant parser still could not handle."""


class NotFittedError(ReproError):
    """A model was used for prediction before being trained."""


class TrainingError(ReproError):
    """Model training failed (degenerate labels, bad shapes, ...)."""


class FeatureError(ReproError):
    """Feature extraction received an unsupported input."""


class StreamError(ReproError):
    """The social-media streaming interface was misused."""


class ReportingError(ReproError):
    """A phishing report could not be filed."""


class ObservabilityError(ReproError):
    """Misuse of the metrics/event instrumentation layer."""
