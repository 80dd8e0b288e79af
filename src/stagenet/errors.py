"""Exception hierarchy shared by every stagenet module.

Each error class maps to one contract family: shapes, caller protocol,
model construction, file layouts and their payloads, configuration, and
non-finite values in training or evaluation.  A message raised by a node
inside a model starts with the node's qualified name (``set4.pool: ...``,
``head1.norm: ...``); a node built on its own starts with its kind
(``maxpool2x2: ...``).
"""


class StagenetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(StagenetError):
    """Operand extents are incompatible with the requested operation."""


class ContractError(StagenetError):
    """An API was called in a way its contract forbids (misuse, not data)."""


class BuildError(StagenetError):
    """A backbone description is internally inconsistent."""


class FormatError(StagenetError):
    """A file does not follow its declared binary or text layout."""


class DataError(StagenetError):
    """File layout is fine but the payload values are invalid."""


class ConfigError(StagenetError):
    """An experiment configuration failed validation."""


class NumericsError(StagenetError):
    """Training or evaluation produced non-finite values.  The message names
    the batch and where its values first went non-finite: a layer by its
    qualified name and direction, e.g. ``head2.fc (fwd)`` or
    ``head2.bn (bwd)``, or the loss when every layer output was finite."""
