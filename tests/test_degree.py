"""Degree computation from topology and singularity data."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import liouville.spectrum
from liouville import (
    CriticalSpectrum,
    GeneralizedSeries,
    HypothesisViolation,
    InteractionMatrix,
    NegativeMassWarning,
    NegativeRho,
    NumericOverflow,
    OnCriticalSurface,
    OutOfRange,
    PreconditionFailed,
    ProblemInstance,
    SingularitySet,
    SurfaceSpec,
    TooManyLevels,
    ZeroMass,
    build_generating_function,
    enumerate_spectrum,
    existence_certificate,
    leray_schauder_degree,
    normalized_energy,
    prescribed_masses,
    torus_special_degree,
)

EXCHANGE = [[0.0, 1.0], [1.0, 0.0]]
A1_ONES = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


def scalar_instance(chi: int, gammas: tuple[float, ...], q: float):
    """n=1, a=1 instance with the requested normalized energy (q = rho/8pi)."""
    return ProblemInstance(
        surface=SurfaceSpec.from_chi(chi),
        singularities=SingularitySet(gammas),
        matrix=InteractionMatrix([[1.0]]),
        rho=(8.0 * math.pi * q,),
    )


# -------------------------------------------------------- normalized_energy


def test_scalar_energy_is_rho_over_8pi():
    assert normalized_energy((8.0 * math.pi,), [[1.0]]) == pytest.approx(1.0)
    assert normalized_energy((12.0 * math.pi,), [[1.0]]) == pytest.approx(1.5)


def test_two_component_energy():
    q = normalized_energy((1.0, 1.0), EXCHANGE)
    assert q == pytest.approx(1.0 / (8.0 * math.pi))


def test_energy_rejects_bad_masses():
    with pytest.raises(NegativeRho):
        normalized_energy((1.0, -0.5), EXCHANGE)
    with pytest.raises(ZeroMass):
        normalized_energy((0.0,), [[1.0]])


def test_energy_beyond_the_double_range_is_refused():
    # q = 1e300^2 / (8 pi 1e300) would be finite, but rho^T A rho is not.
    with pytest.raises(NumericOverflow):
        normalized_energy((1e300,), [[1.0]])
    # inf - inf: the quadratic form is NaN, which no comparison rejects.
    with pytest.raises(NumericOverflow):
        normalized_energy((1e300, 1e300), [[1e10, 1.0], [1.0, -1e10]])
    with pytest.raises(NumericOverflow):
        normalized_energy((1.7e308, 1.7e308), [[0.0, 1e-300], [1e-300, 0.0]])


def test_energy_below_the_normal_range_is_recomputed():
    # rho^T A rho = 1e-600 underflows to 0 and 1e-320 is subnormal; q
    # itself is a normal double in both cases.
    for rho in (1e-300, 1e-160):
        q = normalized_energy((rho,), [[1.0]])
        assert q == pytest.approx(rho / (8.0 * math.pi), rel=1e-15)
    # Scaled up to unit size, this rho would overflow rho^T A rho.
    big = [[1e308, 1e308], [1e308, 1e308]]
    q = normalized_energy((1e-320, 1e-320), big)
    exact = Fraction(1e308) * 2 * Fraction(1e-320)
    assert q == pytest.approx(float(exact) / (8.0 * math.pi), rel=1e-15)
    with pytest.raises(NumericOverflow, match="smallest positive double"):
        normalized_energy((5e-324,), [[1.0]])
    # A true zero stays zero, and a normal energy keeps its bits.
    assert normalized_energy((1.0, 0.0), EXCHANGE) == 0.0
    assert normalized_energy((3.0, 5.0), EXCHANGE) == 30.0 / (8.0 * math.pi * 8.0)


# --------------------------------------------------- leray_schauder_degree


def test_sphere_ladder_degree():
    result = leray_schauder_degree(scalar_instance(2, (), 1.5))
    assert result.degree == -1
    assert result.region_k == 1
    assert result.partial_coefficients == (1, -2)
    assert result.nearest_levels == (1.0, 2.0)


def test_torus_two_sources_degree():
    result = leray_schauder_degree(scalar_instance(0, (1.0, 2.0), 1.5))
    assert result.degree == 3
    assert result.region_k == 1
    assert result.q_normalized == pytest.approx(1.5)


def test_degree_is_one_below_the_first_level():
    for chi in (2, 0, -2):
        result = leray_schauder_degree(scalar_instance(chi, (0.5,), 0.5))
        assert result.degree == 1
        assert result.region_k == 0


@pytest.mark.parametrize("chi", range(-8, 4))
def test_no_source_degree_is_the_chen_lin_binomial(chi):
    # Chen-Lin (CPAM 2003): with no sources the degree in region k is
    # C(k - chi, k) = prod_{j=1..k} (j - chi) / k!, exact in Fractions.
    for k in range(19):
        expected = Fraction(1)
        for j in range(1, k + 1):
            expected *= Fraction(j - chi, j)
        result = leray_schauder_degree(scalar_instance(chi, (), k + 0.5))
        assert result.region_k == k
        assert result.degree == expected


def test_critical_hit_raises():
    with pytest.raises(OnCriticalSurface):
        leray_schauder_degree(scalar_instance(0, (), 1.0))


def test_hypothesis_gate():
    p = ProblemInstance(
        surface=SurfaceSpec.from_chi(0),
        singularities=SingularitySet.empty(),
        matrix=InteractionMatrix([[2.0, 1.0], [1.0, 2.0]]),
        rho=(1.0, 1.0),
    )
    with pytest.raises(HypothesisViolation):
        leray_schauder_degree(p)


def test_energy_beyond_cap_is_out_of_range():
    with pytest.raises(OutOfRange):
        leray_schauder_degree(scalar_instance(0, (), 25.0), cap=20.0)


def test_planar_domain_uses_the_same_formula():
    # an annulus has chi = 0, so it matches the torus coefficients
    annulus = ProblemInstance(
        surface=SurfaceSpec.planar_domain(holes=1),
        singularities=SingularitySet((1.0, 2.0)),
        matrix=InteractionMatrix([[1.0]]),
        rho=(12.0 * math.pi,),
    )
    assert leray_schauder_degree(annulus).degree == 3


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf])
def test_invalid_cap_is_reported_as_for_the_spectrum(cap):
    # q = 1.5 is above 0 and -1, yet the cap itself is what is wrong.
    with pytest.raises(ValueError, match="cap must be positive and finite"):
        leray_schauder_degree(scalar_instance(0, (), 1.5), cap=cap)
    with pytest.raises(ValueError, match="cap must be positive and finite"):
        enumerate_spectrum(SingularitySet(()), cap)


def test_result_types_keep_only_what_is_read():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(CriticalSpectrum) == ["levels"]
    assert names(GeneralizedSeries) == ["levels", "coefficients"]
    assert names(SurfaceSpec) == ["chi"]
    assert SurfaceSpec.torus() == SurfaceSpec.from_chi(0)
    assert SurfaceSpec.closed_surface(0) == SurfaceSpec.from_chi(2)
    assert SurfaceSpec.planar_domain(2) == SurfaceSpec.from_chi(-1)


def guard_outcomes(gammas, cap):
    """'refused' or 'answered' for spectrum, series and degree. With
    chi = N the factor (1-x)^(chi-N) is 1, so no coefficient overflows."""
    s = SingularitySet(gammas)
    chi = len(gammas)
    p = ProblemInstance(
        SurfaceSpec.from_chi(chi), s, InteractionMatrix([[1.0]]), (4.0 * math.pi,)
    )
    calls = (
        lambda: enumerate_spectrum(s, cap),
        lambda: build_generating_function(chi, s, cap),
        lambda: leray_schauder_degree(p, cap=cap),  # q = 0.5 is below every cap
    )
    outcomes = []
    for call in calls:
        try:
            call()
            outcomes.append("answered")
        except TooManyLevels:
            outcomes.append("refused")
    return outcomes


@pytest.mark.parametrize(
    "sources, cap",
    [(16, 20.0), (16, 14.0), (16, 14.5), (18, 2.0), (18, 3.0), (19, 0.75),
     (10, 975.0), (10, 976.0)],
)
def test_spectrum_series_and_degree_share_one_guard(sources, cap):
    # With gamma = 0 the pooled pass is cheap, so only the guard refuses:
    # (ceil(cap) + 1) * 2^N candidates above the limit.
    refused = (math.ceil(cap) + 1) * 2**sources > 10**6
    outcome = "refused" if refused else "answered"
    assert guard_outcomes((0.0,) * sources, cap) == [outcome] * 3


def test_the_guard_reads_the_limit_at_call_time(monkeypatch):
    monkeypatch.setattr(liouville.spectrum, "DEFAULT_LEVEL_LIMIT", 3 * 2**2 - 1)
    assert guard_outcomes((0.5, 1.5), 2.0) == ["refused"] * 3
    monkeypatch.setattr(liouville.spectrum, "DEFAULT_LEVEL_LIMIT", 3 * 2**2)
    assert guard_outcomes((0.5, 1.5), 2.0) == ["answered"] * 3


def test_surface_constructors_resolve_chi():
    assert SurfaceSpec.closed_surface(genus=0).chi == 2
    assert SurfaceSpec.closed_surface(genus=2).chi == -2
    assert SurfaceSpec.planar_domain(holes=0).chi == 1
    assert SurfaceSpec.planar_domain(holes=3).chi == -2
    assert SurfaceSpec.torus().chi == 0
    assert SurfaceSpec.from_chi(-7).chi == -7


# ------------------------------------------------------ torus special case


def test_special_degree_two_sources():
    result = torus_special_degree(SingularitySet((1.0, 2.0)), EXCHANGE)
    assert result.degree == 3
    assert result.q == pytest.approx(1.5)
    np.testing.assert_allclose(result.rho, [4.0 * math.pi * 3.0] * 2)


def test_special_degree_single_source():
    result = torus_special_degree(SingularitySet((1.0,)), [[1.0]])
    assert result.degree == 1


def test_special_degree_three_unit_sources():
    result = torus_special_degree(SingularitySet((1.0, 1.0, 1.0)), A1_ONES)
    assert result.degree == 4


def test_special_degree_rejects_even_total():
    with pytest.raises(PreconditionFailed):
        torus_special_degree(SingularitySet((1.0, 1.0)), EXCHANGE)


def test_special_degree_rejects_fractional_strengths():
    with pytest.raises(PreconditionFailed):
        torus_special_degree(SingularitySet((0.5, 0.5)), EXCHANGE)


def test_special_degree_requires_hypotheses():
    with pytest.raises(HypothesisViolation):
        torus_special_degree(SingularitySet((1.0,)), [[2.0, 1.0], [1.0, 2.0]])


def test_two_routes_agree_on_random_instances():
    rng = np.random.default_rng(20240818)
    matrices = [
        [[1.0]],
        EXCHANGE,
        [[0.0, 2.0], [2.0, 1.0]],
        A1_ONES,
        [[0.0, 1.0, 1.5], [1.0, 0.0, 2.0], [1.5, 2.0, 0.0]],
    ]
    found = 0
    while found < 50:
        n_sources = int(rng.integers(1, 5))
        gammas = tuple(float(g) for g in rng.integers(1, 5, size=n_sources))
        if int(sum(gammas)) % 2 == 0:
            continue
        found += 1
        a = matrices[int(rng.integers(0, len(matrices)))]
        result = torus_special_degree(SingularitySet(gammas), a)
        closed_form = math.prod(int(g) + 1 for g in gammas) // 2
        assert result.degree == closed_form
        p = ProblemInstance(
            SurfaceSpec.torus(),
            SingularitySet(gammas),
            InteractionMatrix(a),
            tuple(result.rho),
        )
        series_route = leray_schauder_degree(
            p, cap=max(20.0, sum(gammas) + 1.0)
        )
        assert series_route.degree == result.degree


# -------------------------------------------------------- prescribed masses


def test_prescribed_masses_scalar():
    out = prescribed_masses(SingularitySet((1.0, 2.0)), [[1.0]])
    np.testing.assert_allclose(out, [12.0 * math.pi])


def test_prescribed_masses_exchange():
    out = prescribed_masses(SingularitySet((1.0,)), EXCHANGE)
    np.testing.assert_allclose(out, [4.0 * math.pi, 4.0 * math.pi])


def test_prescribed_masses_no_sources_warns_on_zero_vector():
    with pytest.warns(NegativeMassWarning):
        out = prescribed_masses(SingularitySet.empty(), [[1.0]])
    np.testing.assert_allclose(out, [0.0])


def test_prescribed_masses_match_the_special_route():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = torus_special_degree(SingularitySet((2.0, 1.0)), A1_ONES)
        expected = prescribed_masses(SingularitySet((2.0, 1.0)), A1_ONES)
    np.testing.assert_allclose(result.rho, expected)


# ------------------------------------------------------------- existence


def test_existence_positive_degree():
    cert = existence_certificate(scalar_instance(0, (1.0, 2.0), 1.5))
    assert cert.solvable
    assert cert.structural
    assert cert.result.degree == 3
    assert "solution exists" in cert.explanation


def test_existence_zero_degree_is_inconclusive():
    cert = existence_certificate(scalar_instance(2, (), 2.5))
    assert not cert.solvable
    assert not cert.structural
    assert cert.result.degree == 0


def test_existence_below_first_level_is_always_solvable():
    cert = existence_certificate(scalar_instance(2, (0.5,), 0.5))
    assert cert.solvable
    assert cert.result.degree == 1


def test_structural_condition_needs_chi_nonpositive_and_integer_strengths():
    cert = existence_certificate(scalar_instance(0, (0.5,), 0.7))
    assert not cert.structural
    cert2 = existence_certificate(scalar_instance(1, (1.0,), 0.5))
    assert not cert2.structural
    cert3 = existence_certificate(scalar_instance(-2, (2.0,), 0.5))
    assert cert3.structural


def test_structural_instances_always_have_positive_degree():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 100:
        chi = -2 * int(rng.integers(0, 3))
        n_sources = int(rng.integers(0, 4))
        gammas = tuple(float(g) for g in rng.integers(0, 4, size=n_sources))
        q = float(rng.uniform(0.05, 10.0))
        if min(abs(q - round(q)), abs(q)) < 1e-6:
            continue
        cert = existence_certificate(scalar_instance(chi, gammas, q), cap=12.0)
        assert cert.structural
        assert cert.result.degree >= 1
        checked += 1


# -------------------------------------------------------------- properties


def test_scaling_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        gammas = tuple(rng.uniform(0.0, 2.0, size=2).tolist())
        a = np.asarray(EXCHANGE) * float(rng.uniform(0.5, 2.0))
        rho = rng.uniform(0.5, 20.0, size=2)
        c = float(rng.uniform(0.25, 4.0))
        p1 = ProblemInstance(
            SurfaceSpec.torus(),
            SingularitySet(gammas),
            InteractionMatrix(a),
            tuple(rho),
        )
        p2 = ProblemInstance(
            SurfaceSpec.torus(),
            SingularitySet(gammas),
            InteractionMatrix(a / c),
            tuple(c * rho),
        )
        try:
            d1 = leray_schauder_degree(p1)
        except OnCriticalSurface:
            continue
        d2 = leray_schauder_degree(p2)
        assert d1.degree == d2.degree
        assert d1.q_normalized == pytest.approx(d2.q_normalized, rel=1e-12)


def test_degree_jumps_by_the_next_coefficient():
    gammas = (1.0, 2.0)
    s = SingularitySet(gammas)
    from liouville import build_generating_function, enumerate_spectrum

    spec = enumerate_spectrum(s, cap=6.0)
    g = build_generating_function(chi=0, singularities=s, cap=6.0)
    coeffs = dict(g.sorted_terms())
    for k, level in enumerate(spec.levels[:-1]):
        below = leray_schauder_degree(scalar_instance(0, gammas, level - 0.25))
        above = leray_schauder_degree(scalar_instance(0, gammas, level + 0.25))
        jump = above.degree - below.degree
        assert jump == coeffs.get(level, 0)
        assert below.region_k == k
        assert above.region_k == k + 1


# ------------------------------------------------ non-finite arguments

_SOURCES = SingularitySet((0.5,))
_INSTANCE = ProblemInstance(
    SurfaceSpec.torus(), _SOURCES, InteractionMatrix(EXCHANGE), (1.0, 1.0)
)
_MASSES = liouville.MassVector((1.0, 2.0), 2.0)
# Each entry point that takes a float, called with the value under test.
_FLOAT_ARGUMENTS = {
    "enumerate_spectrum-cap": lambda x: enumerate_spectrum(_SOURCES, x),
    "enumerate_spectrum-merge_tol": lambda x: enumerate_spectrum(_SOURCES, 5.0, x),
    "build_generating_function-cap": lambda x: build_generating_function(
        0, _SOURCES, x
    ),
    "build_generating_function-merge_tol": lambda x: build_generating_function(
        0, _SOURCES, 5.0, x
    ),
    "leray_schauder_degree-cap": lambda x: leray_schauder_degree(_INSTANCE, cap=x),
    "leray_schauder_degree-tol": lambda x: leray_schauder_degree(_INSTANCE, tol=x),
    "leray_schauder_degree-merge_tol": lambda x: leray_schauder_degree(
        _INSTANCE, merge_tol=x
    ),
    "locate_region-tol": lambda x: liouville.locate_region(
        0.5, CriticalSpectrum((1.0,)), x
    ),
    "SolverOptions-tol": lambda x: liouville.SolverOptions(tol=x),
    "MassVector-mu": lambda x: liouville.MassVector((1.0,), x),
    "SingularitySet-gamma": lambda x: SingularitySet((x,)),
    "SingularitySet-position": lambda x: SingularitySet((0.0,), ((x, 0.0),)),
    "nonsimple_blowup_admissible": liouville.nonsimple_blowup_admissible,
    "energy_scaling_between_points": lambda x: (
        liouville.energy_scaling_between_points(_MASSES, x)
    ),
}


@pytest.mark.parametrize(
    "value", [10**400, math.inf, math.nan], ids=["huge-int", "inf", "nan"]
)
@pytest.mark.parametrize(
    "call", list(_FLOAT_ARGUMENTS.values()), ids=list(_FLOAT_ARGUMENTS)
)
def test_non_finite_arguments_raise_value_error(call, value):
    # An int beyond the double range must not escape as OverflowError.
    with pytest.raises(ValueError):
        call(value)


def test_package_exports_every_module_export():
    modules = ("degree", "errors", "matrix", "pohozaev", "series", "solver", "spectrum")
    union = set()
    for name in modules:
        union |= set(getattr(liouville, name).__all__)
    assert set(liouville.__all__) == union
    assert len(liouville.__all__) == len(union)
