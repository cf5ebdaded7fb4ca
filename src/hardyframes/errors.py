"""Exception types shared across the package.

Every library-specific failure mode gets its own class so callers (and the
CLI exit-code mapping) can distinguish malformed input from genuine
numerical or domain trouble.
"""


class HardyFramesError(Exception):
    """Base class for all domain and numerical errors raised here."""


class DuplicatePointError(HardyFramesError):
    """Two points of a sequence coincide exactly."""


class SingletonSequenceError(HardyFramesError):
    """An operation needing at least two points got fewer."""


class NonHermitianError(HardyFramesError):
    """Matrix is too far from Hermitian to symmetrize away."""


class NotPSDError(HardyFramesError):
    """Matrix has an eigenvalue below the negative tolerance."""


class DimensionMismatchError(HardyFramesError):
    """Operands have incompatible shapes."""


class TruncationTooCoarseError(HardyFramesError):
    """The truncation window cuts off too much of a projection's model-space basis."""


class IndexOutOfRangeError(HardyFramesError):
    """A monomial index falls outside the truncation window."""


class NegativeWeightError(HardyFramesError):
    """Diagonal operator weights must be nonnegative."""


class WeightOutOfRangeError(HardyFramesError):
    """Kernel weights must lie in [0, 1]."""


class DegenerateKernelError(HardyFramesError):
    """A kernel image has numerically zero norm and cannot be normalized."""

    def __init__(self, index: int, norm: float):
        self.index = index
        self.norm = norm
        super().__init__(f"kernel image {index} has norm {norm:.3e}, too small to normalize")


class IllConditionedGramError(HardyFramesError):
    """Gram matrix of the kernel vectors is numerically singular."""


class SingularDiagonalError(HardyFramesError):
    """Diagonal congruence requires all entries nonzero."""


class EmptySubsetError(HardyFramesError):
    """Compression to an empty label set is undefined."""


class UnknownLabelError(HardyFramesError):
    """A requested label is not present in the Grammian."""


class TargetTooHighError(HardyFramesError):
    """A spectral target above 1 can never be met by a normalized Grammian."""


class NotAPartitionError(HardyFramesError):
    """Classes overlap or fail to cover the index set."""


class ConfigInvalidError(HardyFramesError):
    """Verification suite configuration is unusable."""
