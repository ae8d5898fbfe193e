"""Exception types shared across the package."""


class CoevoError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CoevoError):
    """Malformed instance, manifest, or benchmark data."""


class ConfigError(CoevoError):
    """Invalid run configuration or startup precondition."""


class OracleLimitError(CoevoError):
    """An exact oracle refused an instance (size or budget cap)."""


class MissingOptimumError(ConfigError):
    """Evaluation requested on an instance without a known optimum."""


class DanglingReferenceError(CoevoError):
    """Experience record references an unknown candidate id."""


class LlmError(CoevoError):
    """Base class for completion-client failures."""


class TransportError(LlmError):
    """Transient transport failure; retried by the client."""


class MalformedEnvelopeError(TransportError):
    """A reply whose envelope lacks a field or mistypes one (not retried: it would repeat)."""


class MockScriptError(LlmError):
    """Scripted mock backend ran out of responses (not retried)."""


class EmptyResponseError(LlmError):
    """Completion text was empty where content is required."""
