"""Frame bounds, Carleson partitions, and positive-operator kernel
Grammians on the unit disk."""

from .errors import (
    ConfigInvalidError,
    DegenerateKernelError,
    DimensionMismatchError,
    DuplicatePointError,
    HardyFramesError,
    IllConditionedGramError,
    IndexOutOfRangeError,
    NegativeWeightError,
    NonHermitianError,
    NotAPartitionError,
    NotPSDError,
    SingularDiagonalError,
    TargetTooHighError,
    TruncationTooCoarseError,
)
from .geometry import CarlesonReport, PointSequence, carleson_constants, pseudo_hyperbolic
from .hermitian import EigenExtremes, HermitianMatrix, eig_extremes, psd_sqrt
from .kernels import (
    Grammian,
    Provenance,
    image_gram,
    kernel_matrix,
    range_space_gram,
    szego_gram,
)
from .operators import (
    InnerFunction,
    PositiveOperator,
    diagonal_operator,
    evaluate_inner,
    identity,
    projection_c_plus_phi,
    projection_model_space,
    projection_monomial_span,
    projection_phi_H2,
    st_construct,
    st_roundtrip_defect,
    taylor_coefficients,
)
from .frames import BoundsReport, analyze, congruence_diag
from .partition import (
    Partition,
    PartitionCheck,
    minimal_carleson_classes,
    minimal_spectral_classes,
    partition_carleson,
    partition_spectral,
    verify_partition,
)
from .verify import CheckResult, SuiteConfig, run_suite, suite_passed

__version__ = "0.1.0"
