"""Exception hierarchy for the whole toolkit.

Errors are grouped by pipeline stage. Everything derives from
HistRepairError so callers can catch the toolkit's failures in one net
while remaining able to discriminate.
"""


class HistRepairError(Exception):
    """Base class for all toolkit errors."""


# --- repository / blame stage ------------------------------------------------

class GitToolError(HistRepairError):
    """The git invocation itself failed; carries stderr."""

    def __init__(self, message: str, stderr: str = ""):
        super().__init__(message)
        self.stderr = stderr


class BlameParseError(GitToolError):
    """Machine-readable blame output contained an unknown record type."""


class FileNotInSnapshot(HistRepairError):
    """A fault location names a file that does not exist at the snapshot."""


class LineOutOfRange(HistRepairError):
    """A fault location names a line beyond the end of the file."""


class NoFallbackAnchor(HistRepairError):
    """No executable line lies above an insertion point."""


class NewFileNoHistory(HistRepairError):
    """Insertion into a file that does not exist in the snapshot."""


class JudgeError(HistRepairError):
    """The commit judge failed; the message names the candidate commits."""


class EmptyPatch(HistRepairError):
    """A fix patch with no hunks cannot be categorized."""


# --- context building --------------------------------------------------------

class DetectorFailure(HistRepairError):
    """The function boundary detector hit unbalanced braces."""


class NotInFunction(HistRepairError):
    """The requested line lies outside every detected function body."""


class FnPairUnavailable(HistRepairError):
    """Neither the before nor the after side yielded a function span."""


# --- agent loop --------------------------------------------------------------

class ActionParseError(HistRepairError):
    """Base for malformed model output."""


class NoActionFound(ActionParseError):
    """Model output contained no fenced code block."""


class AmbiguousAction(ActionParseError):
    """Model output contained two or more fenced code blocks."""


class EmptyAction(ActionParseError):
    """The single fenced block was empty."""


class ProviderFailure(HistRepairError):
    """Transport or provider failure that exhausted its retries."""


# --- sandbox -----------------------------------------------------------------

class ProvisionError(HistRepairError):
    """Sandbox could not be provisioned: unknown snapshot or failed checkout."""


class SandboxDead(HistRepairError):
    """Command submitted to a handle that is no longer alive."""


class TestOutputParseError(HistRepairError):
    """Test runner output holds no failing-test block."""

    __test__ = False  # keep pytest from collecting this as a test class


# --- evaluation --------------------------------------------------------------

class EmptyScope(HistRepairError):
    """A metric was requested over zero outcome rows."""


class UniverseMismatch(HistRepairError):
    """Configurations being compared do not share the same bug universe."""


class InsufficientData(HistRepairError):
    """Too few rows or columns for the statistical test."""


class DegenerateAllZero(HistRepairError):
    """Every paired difference is zero; the signed-rank test is undefined."""


# --- configuration / CLI -----------------------------------------------------

class ConfigError(HistRepairError):
    """Invalid or incomplete campaign configuration."""


class NotFound(HistRepairError):
    """A bug id or resource was not found in the manifest."""
