"""Exception types for domain errors.

Plain argument mistakes (wrong types, out-of-range integers) raise ValueError;
the classes here mark failures of mathematical preconditions or search limits.
"""


class FrameError(Exception):
    """Base class for frame-domain failures."""


class NotTightError(FrameError):
    """An operation that requires a tight frame received a non-tight one."""


class InfeasibleError(FrameError):
    """A requested construction does not exist for the given parameters."""


class PackingError(FrameError):
    """No disjoint coset packing realizes the requested divisor size or
    its complement size."""


class SearchCapError(FrameError):
    """A search was refused or stopped at its cap without an answer."""
