"""Degree computation from topology and singularity data."""

import dataclasses
import math
import re
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
    message = f"cap must be a real number, finite and positive, got {cap}"
    with pytest.raises(ValueError, match=message):
        leray_schauder_degree(scalar_instance(0, (), 1.5), cap=cap)
    with pytest.raises(ValueError, match=message):
        enumerate_spectrum(SingularitySet(()), cap)


def test_result_types_keep_only_what_is_read():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(CriticalSpectrum) == ["levels", "tops"]
    assert names(GeneralizedSeries) == ["levels", "tops", "coefficients"]
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
    assert type(SurfaceSpec.from_chi(np.int64(-7)).chi) is int


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


def test_each_degree_checks_rho_once(monkeypatch):
    # A built instance holds a checked rho, so the degree reads it as it
    # is; the special route checks its forced masses when it builds one.
    names = []
    check = liouville.degree.check_reals

    def counting(values, name, *args, **kwargs):
        names.append(name)
        return check(values, name, *args, **kwargs)

    monkeypatch.setattr(liouville.degree, "check_reals", counting)
    instance = scalar_instance(0, (1.0, 2.0), 1.5)
    names.clear()
    assert leray_schauder_degree(instance).degree == 3
    assert names.count("rho") == 0
    assert torus_special_degree(SingularitySet((1.0, 2.0)), EXCHANGE).degree == 3
    assert names.count("rho") == 1


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


def test_mass_messages_quote_plain_floats():
    with pytest.raises(NegativeRho) as info:
        normalized_energy([-1.0, 2.0], EXCHANGE)
    assert str(info.value) == "rho[0] = -1.0 is negative"
    with pytest.warns(NegativeMassWarning) as caught:
        prescribed_masses(SingularitySet.empty(), [[1.0]])
    assert str(caught[0].message) == "prescribed mass component 0 is 0.0 <= 0"


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
    "leray_schauder_degree-cap": lambda x: leray_schauder_degree(_INSTANCE, cap=x),
    "leray_schauder_degree-tol": lambda x: leray_schauder_degree(_INSTANCE, tol=x),
    "locate_region-q": lambda x: liouville.locate_region(
        x, CriticalSpectrum((1.0,), {})
    ),
    "locate_region-tol": lambda x: liouville.locate_region(
        0.5, CriticalSpectrum((1.0,), {}), x
    ),
    "SolverOptions-tol": lambda x: liouville.SolverOptions(tol=x),
    "SolverOptions-steps": lambda x: liouville.SolverOptions(steps=x),
    "TorusGrid-resolution": liouville.TorusGrid,
    "MassVector-mu": lambda x: liouville.MassVector((1.0,), x),
    "solve_mass_on_hypersurface-mu": lambda x: (
        liouville.solve_mass_on_hypersurface([[1.0]], x, (1.0,))
    ),
    "SingularitySet-gamma": lambda x: SingularitySet((x,)),
    "SingularitySet-position": lambda x: SingularitySet((0.0,), ((x, 0.0),)),
    "nonsimple_blowup_admissible": liouville.nonsimple_blowup_admissible,
    "energy_scaling_between_points": lambda x: (
        liouville.energy_scaling_between_points(_MASSES, x)
    ),
}


@pytest.mark.parametrize(
    "value",
    [10**400, math.inf, math.nan, "1.0", True, None],
    ids=["huge-int", "inf", "nan", "str", "bool", "none"],
)
@pytest.mark.parametrize(
    "call", list(_FLOAT_ARGUMENTS.values()), ids=list(_FLOAT_ARGUMENTS)
)
def test_non_finite_arguments_raise_value_error(call, value):
    # An int beyond the double range must not escape as OverflowError, nor
    # a string or None as TypeError; a bool is not taken for 0 or 1.
    with pytest.raises(ValueError):
        call(value)


# Each input check with the ValueError text it gives.
@pytest.mark.parametrize(
    ("call", "message"),
    [
        pytest.param(
            lambda: SurfaceSpec.closed_surface(-1),
            "genus must be nonnegative",
            id="closed_surface-genus",
        ),
        pytest.param(
            lambda: SurfaceSpec.planar_domain(-1),
            "holes must be nonnegative",
            id="planar_domain-holes",
        ),
        pytest.param(
            lambda: SurfaceSpec.closed_surface(1.5),
            "genus must be an integer, got 1.5",
            id="closed_surface-fraction",
        ),
        pytest.param(
            lambda: SurfaceSpec.closed_surface(math.inf),
            "genus must be an integer, got inf",
            id="closed_surface-inf",
        ),
        pytest.param(
            lambda: SurfaceSpec.planar_domain(2.0),
            "holes must be an integer, got 2.0",
            id="planar_domain-float",
        ),
        pytest.param(
            lambda: SurfaceSpec.from_chi(0.5),
            "chi must be an integer, got 0.5",
            id="from_chi-fraction",
        ),
        pytest.param(
            lambda: SurfaceSpec.from_chi(True),
            "chi must be an integer, got True",
            id="from_chi-bool",
        ),
        pytest.param(
            lambda: SurfaceSpec(0.5),
            "chi must be an integer, got 0.5",
            id="SurfaceSpec-fraction",
        ),
        pytest.param(
            lambda: build_generating_function(1.9, SingularitySet.empty(), 5.0),
            "chi must be an integer, got 1.9",
            id="build_generating_function-fraction",
        ),
        *(
            pytest.param(
                lambda make=make, value=value: make(value),
                f"{name} must be an integer, got {value!r}",
                id=f"{label}-{kind}",
            )
            for label, name, make in (
                ("TorusGrid", "resolution", liouville.TorusGrid),
                ("SolverOptions", "steps", lambda s: liouville.SolverOptions(steps=s)),
                (
                    "build_generating_function",
                    "chi",
                    lambda chi: build_generating_function(chi, _SOURCES, 5.0),
                ),
            )
            for kind, value in (("float", 64.0), ("str", "64"), ("bool", True))
        ),
        pytest.param(
            lambda: ProblemInstance(
                SurfaceSpec.torus(), _SOURCES, InteractionMatrix(EXCHANGE), (1.0,)
            ),
            r"rho must have shape \(2,\), got \(1,\)",
            id="ProblemInstance-rho-length",
        ),
        pytest.param(
            lambda: ProblemInstance(
                SurfaceSpec.torus(),
                _SOURCES,
                InteractionMatrix(EXCHANGE),
                (1.0, math.inf),
            ),
            r"rho\[1\] must be a real number, finite, got inf",
            id="ProblemInstance-rho-finite",
        ),
        pytest.param(
            lambda: normalized_energy((1.0,), EXCHANGE),
            r"rho must have shape \(2,\), got \(1,\)",
            id="normalized_energy-rho-length",
        ),
        pytest.param(
            lambda: InteractionMatrix(np.zeros((0, 0))),
            r"matrix must have shape \(n, n\) with n >= 1, got \(0, 0\)",
            id="InteractionMatrix-empty",
        ),
        pytest.param(
            lambda: liouville.MassVector([[1.0, 2.0]], 2.0),
            r"sigma must have shape \(n,\) with n >= 1, got \(1, 2\)",
            id="MassVector-sigma-2d",
        ),
        pytest.param(
            lambda: liouville.solve_mass_on_hypersurface(EXCHANGE, 1.0, (1.0,)),
            r"direction must have shape \(2,\), got \(1,\)",
            id="solve_mass_on_hypersurface-direction-length",
        ),
        pytest.param(
            lambda: liouville.FieldSet(np.zeros((1, 8, 4))),
            r"field must have shape \(n, M, M\) with n, M >= 1, got \(1, 8, 4\)",
            id="FieldSet-non-square",
        ),
        pytest.param(
            lambda: liouville.FieldSet(np.zeros((1, 0, 0))),
            r"field must have shape \(n, M, M\) with n, M >= 1, got \(1, 0, 0\)",
            id="FieldSet-no-nodes",
        ),
        pytest.param(
            lambda: liouville.FieldSet(np.zeros((0, 4, 4))),
            r"field must have shape \(n, M, M\) with n, M >= 1, got \(0, 4, 4\)",
            id="FieldSet-no-components",
        ),
        pytest.param(
            lambda: InteractionMatrix([[1.0], [1.0, 2.0]]),
            r"matrix\[1\] has shape \(2,\), but matrix\[0\] has shape \(1,\)",
            id="InteractionMatrix-ragged",
        ),
        pytest.param(
            lambda: SingularitySet((0.5,), ((0.1, 0.2, 0.3),)),
            r"position must have shape \(1, 2\), got \(1, 3\)",
            id="SingularitySet-position-three-coordinates",
        ),
        pytest.param(
            lambda: SingularitySet((0.5,), ((0.1,),)),
            r"position must have shape \(1, 2\), got \(1, 1\)",
            id="SingularitySet-position-one-coordinate",
        ),
        pytest.param(
            lambda: SingularitySet((0.5,), (0.1,)),
            r"position must have shape \(1, 2\), got \(1,\)",
            id="SingularitySet-position-scalar",
        ),
        pytest.param(
            lambda: liouville.local_mass_split(5.0, [1.0]),
            r"rho must have shape \(n,\) with n >= 1, got \(\)",
            id="local_mass_split-rho-scalar",
        ),
        pytest.param(
            lambda: liouville.local_mass_split([[5.0]], [1.0]),
            r"rho must have shape \(n,\) with n >= 1, got \(1, 1\)",
            id="local_mass_split-rho-2d",
        ),
        *(
            pytest.param(
                lambda check=check, sigma=sigma: check(
                    [[1.0]], liouville.MassVector(sigma, 1.0)
                ),
                rf"sigma must have shape \(1,\), got \({len(sigma)},\)",
                id=f"{check.__name__}-sigma-length-{len(sigma)}",
            )
            for check in (liouville.pohozaev_residual, liouville.minimal_mass_check)
            for sigma in ((1.0, 2.0), (1.0, 2.0, 3.0))
        ),
    ],
)
def test_input_checks_refuse_malformed_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _poisoned(base, index, value):
    """base as nested lists, with value at index."""
    entries = np.asarray(base, dtype=float).tolist()
    *outer, last = index
    row = entries
    for i in outer:
        row = row[i]
    row[last] = value
    return entries


# Each array argument: a call taking it, a valid value for it, where the
# poison goes, and the name the error gives that entry.
_ARRAY_ARGUMENTS = {
    "InteractionMatrix": (InteractionMatrix, np.ones((2, 2)), (1, 0), "matrix[1][0]"),
    "ProblemInstance-rho": (
        lambda rho: ProblemInstance(
            SurfaceSpec.torus(), _SOURCES, InteractionMatrix(EXCHANGE), rho
        ),
        np.ones(2),
        (1,),
        "rho[1]",
    ),
    "normalized_energy": (
        lambda rho: normalized_energy(rho, EXCHANGE), np.ones(2), (1,), "rho[1]"
    ),
    "MassVector-sigma": (
        lambda sigma: liouville.MassVector(sigma, 1.0), np.ones(3), (2,), "sigma[2]"
    ),
    "solve_mass_on_hypersurface-direction": (
        lambda d: liouville.solve_mass_on_hypersurface(EXCHANGE, 1.0, d),
        np.ones(2),
        (0,),
        "direction[0]",
    ),
    "critical_surface_from_blowup-mus": (
        lambda mus: liouville.critical_surface_from_blowup(EXCHANGE, (1.0, 2.0), mus),
        np.ones(3),
        (1,),
        "mus[1]",
    ),
    "local_mass_split-rho": (
        lambda rho: liouville.local_mass_split(rho, (1.0,)), np.ones(2), (1,), "rho[1]"
    ),
    "local_mass_split-mus": (
        lambda mus: liouville.local_mass_split((1.0,), mus), np.ones(2), (0,), "mus[0]"
    ),
    "FieldSet": (liouville.FieldSet, np.zeros((2, 4, 4)), (1, 2, 3), "field[1][2][3]"),
    "build_weights-smooth-factor": (
        lambda g: liouville.build_weights(
            liouville.WeightSpec((None, g), SingularitySet.empty()),
            liouville.TorusGrid(4),
        ),
        np.ones((4, 4)),
        (2, 3),
        "smooth_factors[1][2][3]",
    ),
    "SingularitySet-positions": (
        lambda p: SingularitySet((0.5, 1.5), p),
        np.array([[0.1, 0.2], [0.3, 0.4]]),
        (1, 1),
        "position[1][1]",
    ),
}


@pytest.mark.parametrize(
    "value",
    ["1", True, None, math.nan, math.inf, 10**400],
    ids=["str", "bool", "none", "nan", "inf", "huge-int"],
)
@pytest.mark.parametrize(
    ("call", "base", "index", "name"),
    list(_ARRAY_ARGUMENTS.values()),
    ids=list(_ARRAY_ARGUMENTS),
)
def test_array_arguments_name_a_refused_entry(call, base, index, name, value):
    # Given as lists, a string of digits or a bool is not taken for a
    # number among numbers, and the error names the entry.
    call(_poisoned(base, index, base[index]))
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number")):
        call(_poisoned(base, index, value))


# None stands for the constant factor 1.
@pytest.mark.parametrize("value", ["2", True, math.nan, math.inf, 10**400])
def test_a_scalar_smooth_factor_follows_the_same_rule(value):
    w = liouville.WeightSpec((value,), SingularitySet.empty())
    with pytest.raises(ValueError, match=re.escape("smooth_factors[0] must be a real")):
        liouville.build_weights(w, liouville.TorusGrid(4))


def test_package_exports_every_module_export():
    modules = ("degree", "errors", "matrix", "pohozaev", "solver", "spectrum")
    union = set()
    for name in modules:
        union |= set(getattr(liouville, name).__all__)
    assert set(liouville.__all__) == union
    assert len(liouville.__all__) == len(union)
