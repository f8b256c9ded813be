"""Exception types shared across the package."""


class GraphParseError(ValueError):
    """An input file could not be parsed; the message names the offending line."""


class DimensionError(ValueError):
    """Row/column counts of graph inputs are mutually inconsistent."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration budget (paths, subsets, terms) was exceeded.

    Raised instead of truncating, because a truncated enumeration would
    silently weaken a certificate.
    """


class NotATreeError(ValueError):
    """The receptive field is not tree shaped, so the tree recursion does not apply."""


class VoteFormatError(ValueError):
    """A vote file is malformed (bad row or duplicate (node, sample) pair)."""


class InsufficientSamplesError(ValueError):
    """A vote table does not contain the sample indices an estimate requires."""


class IncompleteRepresentativesError(ValueError):
    """A representative set does not partition the retention-set space."""


class EnumerationRefused(RuntimeError):
    """Exact derandomization was refused because the fast bound exceeds the budget.

    ``gnncert derandomize`` writes the node's row with ``derandomized`` 0
    and blank cells after it; the node is no failure, and the run goes on.
    """


class ConfigError(ValueError):
    """A run configuration is invalid or references missing inputs."""
