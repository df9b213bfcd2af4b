"""Exception types shared across the package.

The command-line layer maps these onto its exit codes: solver failures
exit 1, document/format problems exit 2, resource-cap refusals exit 3,
precondition violations exit 4.
"""

from __future__ import annotations


class HaltBanditError(Exception):
    """Base class for every error raised by this package."""


class ModelFormatError(HaltBanditError):
    """A model document could not be parsed or violates the file schema."""


class ResourceCapError(HaltBanditError):
    """An enumeration, a search or a sampled episode would exceed its cap."""


class PreconditionError(HaltBanditError):
    """An operation was invoked outside its stated preconditions."""


class InvalidRuleError(PreconditionError):
    """A stopping rule is malformed for its anchor."""


class SolverError(HaltBanditError):
    """A solve gave no trustworthy answer: a singular linear system, an
    exact solution that fails its own equations, a float solution whose
    backward error exceeds ``linear``'s tolerance, or a chain state with no
    halting mass."""
