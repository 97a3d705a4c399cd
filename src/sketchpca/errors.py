"""Error taxonomy shared by every module in the package.

Three categories matter to callers: bad input, a protocol-level failure that
survived retries, and a broken internal postcondition.
"""


class SketchPcaError(Exception):
    """Base class for all package errors."""


class InputError(SketchPcaError):
    """Caller-supplied arguments violate a documented precondition."""


class ProtocolError(SketchPcaError):
    """A distributed or streaming protocol failed in a detectable way."""


class InternalError(SketchPcaError):
    """A guaranteed postcondition did not hold; indicates a bug."""


class StreamReplayError(ProtocolError):
    """A two-pass stream source did not replay the identical update sequence."""
