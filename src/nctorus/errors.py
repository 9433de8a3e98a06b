"""Exception hierarchy shared by all nctorus modules."""


class NCTorusError(Exception):
    """Base class for all library errors."""


class ParamMismatch(NCTorusError):
    """Operands live over different deformation parameters theta."""


class RankMismatch(NCTorusError):
    """Vector or matrix size does not match the module rank."""


class NonConstantConnection(NCTorusError):
    """Operation requires constant (complex-multiple-of-1) coefficients."""


class NotFlat(NCTorusError):
    """Operation requires a flat connection."""


class ZeroWeight(NCTorusError):
    """The zero weight does not define a path to classify."""


class PathNotAssociated(NCTorusError):
    """A weight is not a closed path associated with the given deck element."""
