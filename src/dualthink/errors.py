"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DualThinkError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DualThinkError):
    """A configuration or domain-type invariant is violated."""


class TemplateError(DualThinkError):
    """A prompt template references a placeholder that was not supplied."""


class _AgentError(DualThinkError):
    """A failure of one agent's call. ``agent`` names the agent once known,
    and ``str()`` then starts with ``[agent]``; ``trace`` is the question's
    partial ReasoningTrace once the engine attaches it."""

    def __init__(self, message: str, agent: str | None = None):
        self.agent = agent
        self.trace = None
        super().__init__(message)

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.agent is None else f"[{self.agent}] {message}"


class ParseError(_AgentError):
    """A structured completion could not be parsed into a valid payload.

    ``reason`` is a machine-readable sentence that is fed back verbatim into
    the retry prompt.
    """

    def __init__(self, reason: str, agent: str | None = None):
        self.reason = reason
        super().__init__(reason, agent)


class BackendError(_AgentError):
    """Transport-level or protocol-level failure when calling a model."""


class BackendTimeout(BackendError):
    """The request timed out and the retry budget is spent."""


class BackendHTTPError(BackendError):
    """The server answered with a non-retryable (or final) HTTP error."""

    def __init__(self, status: int, message: str = ""):
        self.status = status
        super().__init__(message or f"HTTP {status}")


class BackendExhausted(BackendError):
    """No attempt succeeded: retries spent, or a scripted backend ran dry."""


class IngestError(DualThinkError):
    """A corpus violates ingestion rules (duplicate id, empty text, ...)."""


class FormatError(DualThinkError):
    """A data file line is malformed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
