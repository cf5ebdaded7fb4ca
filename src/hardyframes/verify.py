"""Randomized verification suite for the operator-kernel identities.

Five families of seeded spot checks, each comparing an implementation path
against an independently computed prediction:

- ``toeplitz_covariance``: the Grammian of projected kernels under a
  multiplication-range projection equals the diagonal congruence of the
  closed-form Grammian by the symbol values.
- ``loewner_chain``: three projection constructions that contain a
  multiplication range dominate it and are dominated by the identity in
  the Loewner order; per-point norms obey the sandwich
  |phi(z)| <= ||P k~_z|| <= 1.
- ``st_roundtrip``: the inverse construction realizes a prescribed PSD
  Grammian up to truncation and honors the diagonal floor.
- ``diag_sandwich``: an operator squeezed between alpha D and beta D has
  kernel-Grammian eigenvalues squeezed by the same factors, and its
  quadratic form obeys the two-sided bound pointwise. The middle operator
  is alpha I plus a rank-16 update, applied in structured form.
- ``weighted_hardy``: range-space Grammians of diagonal weight operators
  with geometric weights match the closed-form weighted kernel.

Each check is one trial function of (cfg, rng, trial), which reads the
truncation order from ``cfg.order``, and ``_run_trials`` is the one loop
that runs them: it seeds every trial by (seed, check, trial), keeps the worst
defect and the failure count, and serializes the worst failed trial as the
witness. ``CHECK_IDS`` is the order of the trial table, which also fixes
each check's seed index, so a new check is appended there. Reports for a
fixed configuration are byte-identical across runs.

No check forms an N x N matrix: every operator is diagonal or identity
plus low rank, so a run costs O(N) memory and time linear in N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from numbers import Real

import numpy as np

from .errors import ConfigInvalidError
from .geometry import PointSequence, carleson_constants
from .hermitian import HermitianMatrix
from .io import to_pairs
from .kernels import DEFAULT_ORDER, kernel_matrix, range_space_gram, image_gram, szego_gram
from .operators import (
    ST_NORM_FLOOR_SLACK,
    ST_ROUNDTRIP_GATE,
    InnerFunction,
    PositiveOperator,
    diagonal_operator,
    evaluate_inner,
    projection_c_plus_phi,
    projection_monomial_span,
    projection_phi_H2,
    st_construct,
    st_roundtrip_defect,
    taylor_coefficients,
)

POINT_FAMILIES = ("uniform_disk", "radial_geometric", "carleson_separated", "clustered")

DEFAULT_TOLERANCES = {
    "toeplitz_covariance": 1e-6,
    "loewner_chain": 1e-8,
    "norm_sandwich": 1e-6,
    "st_roundtrip": ST_ROUNDTRIP_GATE,
    "st_norm_floor": ST_NORM_FLOOR_SLACK,
    "diag_sandwich": 1e-10,
    "weighted_hardy": 1e-8,
}

# Points reach |z| = 0.9, and the closed-form checks allow no truncation
# tail, so a kernel inner product truncated at order N is off by up to
# 0.81^N / (1 - 0.81). That is 1.0e-11 at N = 128, well under the 1e-8
# closed-form tolerance; at N = 64 it is 7.3e-6, and correct programs fail.
MIN_SUITE_ORDER = 128


@dataclass(frozen=True)
class SuiteConfig:
    """Seed, trial count, truncation order, point families, tolerance overrides."""

    seed: int = 42
    trials: int = 20
    order: int = DEFAULT_ORDER
    point_families: tuple[str, ...] = POINT_FAMILIES
    tolerances: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigInvalidError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ConfigInvalidError(f"trials must be >= 1, got {self.trials}")
        if self.order < MIN_SUITE_ORDER:
            raise ConfigInvalidError(
                f"truncation order {self.order} is too small to test (need >= {MIN_SUITE_ORDER})"
            )
        if not self.point_families:
            raise ConfigInvalidError("at least one point family is required")
        for fam in self.point_families:
            if fam not in POINT_FAMILIES:
                raise ConfigInvalidError(f"unknown point family {fam!r}")
        for key, value in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigInvalidError(f"unknown tolerance key {key!r}")
            if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 <= value < np.inf:
                raise ConfigInvalidError(f"tolerance {key} must be a finite number >= 0, got {value!r}")

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    trials: int
    failures: int
    worst_violation: float
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _rng(cfg: SuiteConfig, check_id: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, CHECK_IDS.index(check_id), trial])


# ---------------------------------------------------------------------------
# point families


def sample_uniform_disk(rng, count: int, max_modulus: float = 0.9) -> list[complex]:
    out: list[complex] = []
    while len(out) < count:
        z = complex(rng.uniform(-max_modulus, max_modulus), rng.uniform(-max_modulus, max_modulus))
        if abs(z) <= max_modulus and z not in out:
            out.append(z)
    return out


def sample_radial_geometric(rng, count: int, max_modulus: float = 0.9) -> list[complex]:
    """Radii 1 - ratio^k marching toward the boundary, capped, random angles."""
    ratio = float(rng.uniform(0.45, 0.7))
    out: list[complex] = []
    for k in range(1, count + 1):
        r = min(1.0 - ratio**k, max_modulus)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        out.append(r * np.exp(1j * theta))
    return out


def sample_carleson_separated(
    rng, count: int, min_infimum: float = 0.3, max_modulus: float = 0.9
) -> list[complex]:
    """Jittered ring configurations with a certified separation infimum.

    Points near the boundary are cheap to separate (the hyperbolic
    circumference blows up), so a ring with angular jitter reaches
    infimum >= 0.3 even at a dozen points; draws are retried until the
    certificate holds.
    """
    if count == 1:
        return [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))]
    for _ in range(200):
        radius = float(rng.uniform(0.84, max_modulus))
        base = float(rng.uniform(0.0, 2.0 * np.pi))
        step = 2.0 * np.pi / count
        pts = []
        for k in range(count):
            theta = base + k * step + float(rng.uniform(-0.15, 0.15)) * step
            r = radius * (1.0 + float(rng.uniform(-0.02, 0.02)))
            pts.append(min(r, max_modulus) * np.exp(1j * theta))
        report = carleson_constants(PointSequence(tuple(pts)))
        if report.infimum >= min_infimum:
            return pts
    raise RuntimeError(f"could not sample {count} points with separation {min_infimum}")


def sample_clustered(rng, count: int, max_modulus: float = 0.9) -> list[complex]:
    center = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    out: list[complex] = []
    while len(out) < count:
        offset = complex(rng.normal(0.0, 0.06), rng.normal(0.0, 0.06))
        z = center + offset
        if abs(z) <= max_modulus and z not in out:
            out.append(z)
    return out


_FAMILY_SAMPLERS = {
    "uniform_disk": sample_uniform_disk,
    "radial_geometric": sample_radial_geometric,
    "carleson_separated": sample_carleson_separated,
    "clustered": sample_clustered,
}


def _family_points(cfg: SuiteConfig, rng, trial: int, count: int):
    fam = cfg.point_families[trial % len(cfg.point_families)]
    return _FAMILY_SAMPLERS[fam](rng, count), fam


def _random_blaschke(rng, max_zeros: int = 5, max_radius: float = 0.8, allow_power: bool = True) -> InnerFunction:
    n_zeros = int(rng.integers(1, max_zeros + 1))
    zeros: list[complex] = []
    while len(zeros) < n_zeros:
        a = complex(rng.uniform(-max_radius, max_radius), rng.uniform(-max_radius, max_radius))
        if 0.05 < abs(a) <= max_radius:
            zeros.append(a)
    power = int(rng.integers(0, 2)) if allow_power else 0
    return InnerFunction(tuple(zeros), 1.0, power)


# ---------------------------------------------------------------------------
# individual checks
#
# A trial function draws one instance from its generator and returns
# (defect, failed, fields): the trial's worst violation, whether it broke a
# tolerance, and the witness fields that reproduce it.


def _toeplitz_covariance_trial(cfg: SuiteConfig, rng, trial: int):
    """Projected-kernel Grammian vs. symbol-value congruence of the closed form."""
    pts, fam = _family_points(cfg, rng, trial, int(rng.integers(2, 9)))
    seq = PointSequence(tuple(pts))
    phi = _random_blaschke(rng)
    proj = projection_phi_H2(phi, cfg.order)
    lhs = image_gram(proj, seq).matrix.matrix
    values = np.array([evaluate_inner(phi, z) for z in seq.points])
    rhs = szego_gram(seq).matrix.matrix * np.outer(values, np.conj(values))
    defect = float(np.abs(lhs - rhs).max())
    fields = {
        "family": fam,
        "points": to_pairs(seq.points),
        "zeros": to_pairs(phi.zeros),
        "monomial_power": phi.monomial_power,
    }
    return defect, defect > cfg.tol("toeplitz_covariance"), fields


def _span_complement(columns: np.ndarray) -> PositiveOperator:
    """I minus the orthogonal projection onto the column span, as I - Q Q*."""
    q, _ = np.linalg.qr(columns)
    return PositiveOperator(-np.ones(q.shape[1]), "span_complement", "custom", basis=q, shift=1.0)


def _loewner_instance(rng, trial: int, order: int):
    """One of three projection constructions containing a multiplication range."""
    kind = trial % 3
    if kind == 0:
        count = int(rng.integers(1, 4))
        excluded = sorted(int(j) for j in rng.choice(6, size=count, replace=False))
        op = projection_monomial_span(excluded, order)
        phi = InnerFunction((), 1.0, max(excluded) + 1)
        return op, phi, "monomial_span"
    if kind == 1:
        phi = _random_blaschke(rng, max_zeros=3, max_radius=0.7, allow_power=False)
        op = projection_c_plus_phi(phi, order)
        return op, phi, "constants_plus_range"
    inner_count = int(rng.integers(1, 3))
    factors = [_random_blaschke(rng, max_zeros=2, max_radius=0.7, allow_power=False)
               for _ in range(inner_count)]
    cols = np.stack(
        [taylor_coefficients(f, order) for f in factors], axis=1
    )
    op = _span_complement(cols)
    zeros = tuple(a for f in factors for a in f.zeros)
    phi = InnerFunction(zeros, 1.0, 1 + sum(f.monomial_power for f in factors))
    return op, phi, "inner_span_complement"


def _loewner_chain_trial(cfg: SuiteConfig, rng, trial: int):
    """G_phi <= G_P <= G for projections whose range contains phi H^2."""
    op, phi, tag = _loewner_instance(rng, trial, cfg.order)
    count = int(rng.integers(2, 7))
    moduli = rng.uniform(0.5, 0.9, size=count)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    seq = PointSequence(tuple(moduli * np.exp(1j * angles)))

    g_phi = image_gram(projection_phi_H2(phi, cfg.order), seq).matrix.matrix
    g_p = image_gram(op, seq).matrix.matrix
    g_full = szego_gram(seq).matrix.matrix

    lower = -float(np.linalg.eigvalsh(g_p - g_phi)[0])
    upper = -float(np.linalg.eigvalsh(g_full - g_p)[0])
    norms = np.sqrt(np.clip(np.real(np.diagonal(g_p)), 0.0, None))
    symbol = np.abs([evaluate_inner(phi, z) for z in seq.points])
    sandwich = float(np.max(np.maximum(symbol - norms, norms - 1.0)))

    tol_chain = cfg.tol("loewner_chain")
    failed = lower > tol_chain or upper > tol_chain or sandwich > cfg.tol("norm_sandwich")
    fields = {
        "construction": tag,
        "points": to_pairs(seq.points),
        "zeros": to_pairs(phi.zeros),
        "monomial_power": phi.monomial_power,
        "chain_lower": lower,
        "chain_upper": upper,
        "norm_sandwich": sandwich,
    }
    return max(lower, upper, sandwich), failed, fields


def _st_roundtrip_trial(cfg: SuiteConfig, rng, trial: int):
    """Prescribed PSD Grammians are realized by the inverse construction."""
    delta = 0.2
    count = int(rng.integers(2, 13))
    pts = sample_carleson_separated(rng, count, min_infimum=0.3)
    seq = PointSequence(tuple(pts))
    raw = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
    base = raw @ raw.conj().T / count
    top = float(np.real(np.diagonal(base)).max())
    q = 0.8 * base / top + delta * np.eye(count)

    op = st_construct(q, seq, cfg.order, delta)
    defect, min_norm_sq = st_roundtrip_defect(op, q, seq)
    floor_violation = (delta - cfg.tol("st_norm_floor")) - min_norm_sq
    failed = defect > cfg.tol("st_roundtrip") or floor_violation > 0.0
    fields = {
        "points": to_pairs(seq.points),
        "q": to_pairs(q),
        "delta": delta,
        "roundtrip": defect,
        "min_norm_sq": min_norm_sq,
    }
    return max(defect, floor_violation), failed, fields


# Rank of the middle operator's update in ``diag_sandwich``: M = alpha I + U C U*
# with U of size N x _SANDWICH_RANK, so a trial costs O(N * rank^2).
_SANDWICH_RANK = 16


@dataclass(frozen=True)
class _Sandwich:
    """Defects of one sandwich instance, with the products they are read from."""

    spectrum_violation: float
    quad_violation: float
    gram_violation: float
    forms: np.ndarray
    gram: np.ndarray


def _sandwich(alpha, beta, weights, basis, core, vectors, v) -> _Sandwich:
    """Check alpha D <= P <= beta D for P = D^(1/2) M D^(1/2), M = alpha I + U C U*.

    ``basis`` U has orthonormal columns and ``core`` is the diagonal C. The
    spectrum of M, alpha on the complement of U plus the eigenvalues of the
    compression U* M U, must lie in [alpha, beta]; then the quadratic forms
    x* P x of the columns of ``vectors`` lie between alpha and beta times
    x* D x, and the eigenvalues of the Grammian V* P V of the kernel columns
    ``v`` between alpha and beta times those of V* D V. P is applied through
    ``M.apply`` and never formed.
    """
    mid = PositiveOperator(core, "diag_sandwich_middle", "custom", basis=basis, shift=alpha)
    compressed = basis.conj().T @ mid.apply(basis)
    mid_eigs = np.append(np.linalg.eigvalsh(HermitianMatrix(compressed).matrix), alpha)
    spectrum = max(alpha - float(mid_eigs.min()), float(mid_eigs.max()) - beta)

    d_half = np.sqrt(weights)[:, None]
    x = d_half * vectors
    pd_forms = np.real(np.einsum("ij,ij->j", np.conj(vectors), weights[:, None] * vectors))
    pp_forms = np.real(np.einsum("ij,ij->j", np.conj(x), mid.apply(x)))
    scale = float(np.max(pd_forms))
    quad = float(np.max(np.maximum(alpha * pd_forms - pp_forms, pp_forms - beta * pd_forms)))

    w = d_half * v
    g_d = v.conj().T @ (weights[:, None] * v)
    g_p = w.conj().T @ mid.apply(w)
    gd_eigs = np.linalg.eigvalsh(HermitianMatrix(g_d).matrix)
    gp_eigs = np.linalg.eigvalsh(HermitianMatrix(g_p).matrix)
    gram = max(
        alpha * float(gd_eigs[0]) - float(gp_eigs[0]),
        float(gp_eigs[-1]) - beta * float(gd_eigs[-1]),
    )
    return _Sandwich(spectrum, quad / scale, gram, pp_forms, g_p)


def _diag_sandwich_trial(cfg: SuiteConfig, rng, trial: int):
    """alpha D <= P <= beta D squeezes quadratic forms and kernel Grammians."""
    n = cfg.order
    alpha = float(rng.uniform(0.2, 0.8))
    beta = float(rng.uniform(alpha + 0.2, 2.0))
    weights = rng.uniform(0.3, 1.0, size=n)

    # P = D^(1/2) M D^(1/2) with M = alpha I + U C U*, identity plus rank r.
    # spec(M) is alpha together with alpha + C, inside [alpha, beta] with both
    # ends attained, so the sandwich constants are exact by construction and
    # reverified in ``_sandwich``.
    r = _SANDWICH_RANK
    basis, _ = np.linalg.qr(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    spectrum = rng.uniform(alpha, beta, size=r)
    spectrum[0], spectrum[-1] = alpha, beta

    vectors = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
    count = int(rng.integers(2, 7))
    pts, fam = _family_points(cfg, rng, trial, count)
    seq = PointSequence(tuple(pts))
    v = kernel_matrix(seq, n, normalize=True)
    out = _sandwich(alpha, beta, weights, basis, spectrum - alpha, vectors, v)

    defect = max(out.spectrum_violation, out.quad_violation, out.gram_violation)
    fields = {
        "family": fam,
        "alpha": alpha,
        "beta": beta,
        "points": to_pairs(seq.points),
        "quad_violation": out.quad_violation,
        "gram_violation": out.gram_violation,
    }
    return defect, defect > cfg.tol("diag_sandwich"), fields


def _weighted_hardy_trial(cfg: SuiteConfig, rng, trial: int):
    """Geometric diagonal weights reproduce the closed-form weighted kernel."""
    s = 0.0 if trial % 10 == 9 else float(rng.uniform(0.05, 0.9))
    count = int(rng.integers(2, 7))
    pts, fam = _family_points(cfg, rng, trial, count)
    seq = PointSequence(tuple(pts))

    weights = s ** np.arange(cfg.order, dtype=np.float64)
    op = diagonal_operator(weights)
    lhs = range_space_gram(op, seq).matrix.matrix

    z = seq.values()
    closed = 1.0 / (1.0 - s * z[:, None] * np.conj(z)[None, :])
    norms = np.sqrt(np.real(np.diagonal(closed)))
    rhs = closed / np.outer(norms, norms)
    defect = float(np.abs(lhs - rhs).max())
    fields = {"family": fam, "ratio": s, "points": to_pairs(seq.points)}
    return defect, defect > cfg.tol("weighted_hardy"), fields


def _run_trials(cfg: SuiteConfig, check_id: str, trial_fn) -> CheckResult:
    """Run one check's trials, each on its own (seed, check, trial) generator.

    The result carries the worst defect over all trials and the number of
    failed trials; the failed trial with the largest defect (the first one
    on ties) becomes the witness {"trial": t, **fields, "defect": d}.
    """
    worst = -np.inf
    failures = 0
    witness = None
    for trial in range(cfg.trials):
        defect, failed, fields = trial_fn(cfg, _rng(cfg, check_id, trial), trial)
        worst = max(worst, defect)
        if failed:
            failures += 1
            if witness is None or defect > witness["defect"]:
                witness = {"trial": trial, **fields, "defect": defect}
    return CheckResult(check_id, cfg.trials, failures, worst, witness)


_TRIALS = {
    "toeplitz_covariance": _toeplitz_covariance_trial,
    "loewner_chain": _loewner_chain_trial,
    "st_roundtrip": _st_roundtrip_trial,
    "diag_sandwich": _diag_sandwich_trial,
    "weighted_hardy": _weighted_hardy_trial,
}

CHECK_IDS = tuple(_TRIALS)

# check id -> cfg -> CheckResult; ``run_suite`` looks each entry up at call
# time, so an entry replaced here (to time or wrap a check) is the one run.
_CHECKS = {
    check_id: partial(_run_trials, check_id=check_id, trial_fn=trial_fn)
    for check_id, trial_fn in _TRIALS.items()
}


def run_suite(cfg: SuiteConfig) -> tuple[CheckResult, ...]:
    """Run every check under one seed; aggregate pass means zero failures."""
    cfg.validate()
    return tuple(_CHECKS[check_id](cfg) for check_id in CHECK_IDS)


def suite_passed(results) -> bool:
    return all(r.failures == 0 for r in results)
