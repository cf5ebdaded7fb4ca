"""Acceptance gate: nine numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; each criterion is seeded and self-contained, and the whole
gate stays well under a minute.
"""

import json
import math

import numpy as np

from hardyframes import (
    InnerFunction,
    PointSequence,
    PositiveOperator,
    HermitianMatrix,
    analyze,
    congruence_diag,
    diagonal_operator,
    eig_extremes,
    evaluate_inner,
    image_gram,
    kernel_matrix,
    partition_carleson,
    partition_spectral,
    projection_c_plus_phi,
    projection_monomial_span,
    projection_phi_H2,
    pseudo_hyperbolic,
    range_space_gram,
    st_construct,
    st_roundtrip_defect,
    szego_gram,
    taylor_coefficients,
    verify_partition,
)
from hardyframes.cli import main
from hardyframes.geometry import carleson_constants
from hardyframes.verify import sample_carleson_separated, sample_radial_geometric


def _report(number, name, ok, detail=""):
    suffix = f" {detail}" if detail else ""
    print(f"CRITERION {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def _distinct_points(rng, count, max_modulus=0.9, min_gap=0.05):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-max_modulus, max_modulus), rng.uniform(-max_modulus, max_modulus))
        if abs(z) <= max_modulus and all(abs(z - w) >= min_gap for w in pts):
            pts.append(z)
    return pts


def _random_blaschke(rng, max_zeros=5, max_radius=0.8):
    n_zeros = int(rng.integers(1, max_zeros + 1))
    zeros = []
    while len(zeros) < n_zeros:
        a = complex(rng.uniform(-max_radius, max_radius), rng.uniform(-max_radius, max_radius))
        if 0.05 < abs(a) <= max_radius:
            zeros.append(a)
    return InnerFunction(tuple(zeros))


def test_criterion_1_closed_form_vs_series_oracle():
    # plain-loop truncated series, normalized by its own diagonal
    def series(zi, zj):
        acc, term = 0.0 + 0.0j, 1.0 + 0.0j
        x = zi * complex(zj).conjugate()
        for _ in range(256):
            acc += term
            term *= x
        return acc

    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(100):
        zi, zj = _distinct_points(rng, 2)
        g = szego_gram(PointSequence([zi, zj])).matrix.matrix
        oracle = series(zi, zj) / math.sqrt(series(zi, zi).real * series(zj, zj).real)
        worst = max(worst, abs(g[0, 1] - oracle))
    assert _report(1, "szego closed form vs series oracle", worst <= 1e-8, f"(worst {worst:.3e})")


def test_criterion_2_projected_kernel_covariance():
    rng = np.random.default_rng(2007)
    order = 256
    worst = 0.0
    for _ in range(100):
        seq = PointSequence(_distinct_points(rng, int(rng.integers(2, 7))))
        phi = _random_blaschke(rng)
        lhs = image_gram(projection_phi_H2(phi, order), seq).matrix.matrix
        values = np.array([evaluate_inner(phi, z) for z in seq.points])
        rhs = szego_gram(seq).matrix.matrix * np.outer(values, np.conj(values))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert _report(2, "projected-kernel covariance identity", worst <= 1e-6, f"(worst {worst:.3e})")


def test_criterion_3_loewner_chain_and_norm_sandwich():
    rng = np.random.default_rng(3007)
    order = 256
    worst_chain, worst_norm = -np.inf, -np.inf
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            excluded = sorted(int(j) for j in rng.choice(6, size=int(rng.integers(1, 4)), replace=False))
            op = projection_monomial_span(excluded, order)
            phi = InnerFunction((), 1.0, max(excluded) + 1)
        elif kind == 1:
            phi = _random_blaschke(rng, max_zeros=3, max_radius=0.7)
            op = projection_c_plus_phi(phi, order)
        else:
            inner = _random_blaschke(rng, max_zeros=2, max_radius=0.7)
            cols = taylor_coefficients(inner, order).reshape(-1, 1)
            q, _ = np.linalg.qr(cols)
            comp = np.eye(order, dtype=np.complex128) - q @ q.conj().T
            op = PositiveOperator(HermitianMatrix(comp), "span_complement", "custom")
            phi = InnerFunction(inner.zeros, 1.0, 1)
        seq = PointSequence(_distinct_points(rng, int(rng.integers(2, 7))))

        g_phi = image_gram(projection_phi_H2(phi, order), seq).matrix.matrix
        g_p = image_gram(op, seq).matrix.matrix
        g_full = szego_gram(seq).matrix.matrix
        worst_chain = max(
            worst_chain,
            -float(np.linalg.eigvalsh(g_p - g_phi)[0]),
            -float(np.linalg.eigvalsh(g_full - g_p)[0]),
        )
        norms = np.sqrt(np.clip(np.real(np.diagonal(g_p)), 0.0, None))
        symbol = np.abs([evaluate_inner(phi, z) for z in seq.points])
        worst_norm = max(worst_norm, float(np.max(np.maximum(symbol - norms, norms - 1.0))))
    ok = worst_chain <= 1e-8 and worst_norm <= 1e-6
    assert _report(
        3, "loewner chain with norm sandwich", ok,
        f"(chain {worst_chain:.3e}, sandwich {worst_norm:.3e})",
    )


def test_criterion_4_grammian_realization_roundtrip():
    rng = np.random.default_rng(4007)
    order = 256
    worst_defect, worst_floor = 0.0, np.inf
    for _ in range(50):
        count = int(rng.integers(2, 13))
        seq = PointSequence(tuple(sample_carleson_separated(rng, count, min_infimum=0.3)))
        raw = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
        base = raw @ raw.conj().T / count
        q = 0.8 * base / float(np.real(np.diagonal(base)).max()) + 0.2 * np.eye(count)
        op = st_construct(q, seq, order, 0.2)
        defect, min_norm_sq = st_roundtrip_defect(op, q, seq)
        worst_defect = max(worst_defect, defect)
        worst_floor = min(worst_floor, min_norm_sq)
    ok = worst_defect <= 1e-6 and worst_floor >= 0.2 - 1e-8
    assert _report(
        4, "prescribed Grammian realization roundtrip", ok,
        f"(defect {worst_defect:.3e}, floor {worst_floor:.6f})",
    )


def test_criterion_5_diagonal_congruence_bounds():
    rng = np.random.default_rng(5007)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        g = szego_gram(PointSequence(_distinct_points(rng, n)))
        d = rng.uniform(0.2, 3.0, size=n) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
        before = eig_extremes(g.matrix)
        after = eig_extremes(congruence_diag(g, d).matrix)
        lo, hi = float(np.min(np.abs(d)) ** 2), float(np.max(np.abs(d)) ** 2)
        low_violation = (lo * before.lambda_min - after.lambda_min) / max(1.0, lo * before.lambda_min)
        high_violation = (after.lambda_max - hi * before.lambda_max) / max(1.0, hi * before.lambda_max)
        worst = max(worst, low_violation, high_violation)
    assert _report(5, "diagonal congruence eigenvalue bounds", worst <= 1e-10, f"(worst {worst:.3e})")


def test_criterion_6_partition_certificates():
    rng = np.random.default_rng(6007)
    seq = PointSequence(tuple(sample_radial_geometric(rng, 200)))

    part_c = partition_carleson(seq, 0.1)
    carleson_ok = True
    for cls in part_c.classes:
        sub = seq.subsequence([list(seq.labels).index(lab) for lab in cls])
        if carleson_constants(sub).infimum < 0.1:
            carleson_ok = False

    g = szego_gram(seq)
    part_s = partition_spectral(g, 0.1)
    spectral_ok = verify_partition(g, part_s, 0.1).all_pass

    # brute-force minimality oracle over every set partition of 8 points
    small = PointSequence(_distinct_points(rng, 8))
    pts = list(small.values())
    delta, c_target = 0.4, 0.3
    gs = szego_gram(small).matrix.matrix

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for k in range(len(part)):
                yield part[:k] + [part[k] + [head]] + part[k + 1:]
            yield [[head]] + part

    def carleson_feasible(cls):
        for i in cls:
            prod = 1.0
            for j in cls:
                if j != i:
                    prod *= pseudo_hyperbolic(pts[i], pts[j])
            if prod < delta:
                return False
        return True

    def spectral_feasible(cls):
        return bool(np.linalg.eigvalsh(gs[np.ix_(cls, cls)])[0] >= c_target)

    cache_c, cache_s = {}, {}

    def minimal(feasible, cache):
        best = len(pts)
        for part in partitions(list(range(len(pts)))):
            if len(part) >= best:
                continue
            ok = True
            for cls in part:
                key = frozenset(cls)
                hit = cache.get(key)
                if hit is None:
                    hit = cache[key] = feasible(cls)
                if not hit:
                    ok = False
                    break
            if ok:
                best = len(part)
        return best

    greedy_c = partition_carleson(small, delta).class_count
    greedy_s = partition_spectral(szego_gram(small), c_target).class_count
    minimal_ok = (
        minimal(carleson_feasible, cache_c) <= greedy_c <= 8
        and minimal(spectral_feasible, cache_s) <= greedy_s <= 8
    )

    ok = carleson_ok and spectral_ok and minimal_ok
    assert _report(
        6, "partition certificates and minimality", ok,
        f"(200-pt classes: carleson {part_c.class_count}, spectral {part_s.class_count})",
    )


def test_criterion_7_frame_riesz_dichotomy():
    rng = np.random.default_rng(7007)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pts = _distinct_points(rng, n)
        distinct_min = eig_extremes(szego_gram(PointSequence(pts)).matrix).lambda_min
        if distinct_min <= 0.0:
            ok = False
        doubled = pts + [pts[int(rng.integers(0, n))]]
        rep = analyze(szego_gram(PointSequence(doubled)))
        ext = eig_extremes(szego_gram(PointSequence(doubled)).matrix)
        if ext.lambda_min > 1e-12 or rep.frame_A <= 0.0:
            ok = False
    assert _report(7, "frame vs riesz dichotomy under duplication", ok)


def test_criterion_8_weighted_hardy_identification():
    rng = np.random.default_rng(8007)
    order = 256
    op = diagonal_operator(0.5 ** np.arange(256, dtype=np.float64))
    worst = 0.0
    for _ in range(20):
        seq = PointSequence(_distinct_points(rng, int(rng.integers(2, 7))))
        lhs = range_space_gram(op, seq).matrix.matrix
        z = seq.values()
        closed = 1.0 / (1.0 - 0.5 * z[:, None] * np.conj(z)[None, :])
        norms = np.sqrt(np.real(np.diagonal(closed)))
        rhs = closed / np.outer(norms, norms)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert _report(8, "weighted kernel identification", worst <= 1e-8, f"(worst {worst:.3e})")


def test_criterion_9_verification_report_determinism(tmp_path):
    args = ["verify", "--seed", "42", "--trials", "2", "--N", "128"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = main(args + ["--out", str(first)])
    rc2 = main(args + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    parsed = json.loads(first.read_text(encoding="utf-8"))
    ok = rc1 == 0 and rc2 == 0 and identical and parsed["passed"] is True
    assert _report(9, "byte-identical verification reports", ok)
