"""Non-finite parameters raise DomainError at every entry point, instead
of returning NaN, a wrong number or running a panel loop to its cap, and
extreme finite arguments give a value rather than a bare float error."""

import math
import sys
import warnings

import pytest

from fresnelpseudo.density import (
    OscillationConstants,
    PseudoParams,
    density,
    weibull_representation,
)
from fresnelpseudo.errors import DomainError
from fresnelpseudo.measure import CylinderEvent, box_kernel_integral, cylinder_measure, line_total
from fresnelpseudo.mixture import classify, mode_analysis
from fresnelpseudo.sampling import SeededStream, sample_cauchy_mixture, sample_stable
from fresnelpseudo.special import (
    AiryOrder,
    WrightArgs,
    airy_cdf_tail,
    airy_grid,
    airy_quadrature,
    airy_series,
    stable_subordinator_pdf,
    wright_series,
)
from fresnelpseudo.subordination import (
    StableParams,
    SubordinationSpec,
    subordinated_char_fn,
    subordinated_density_quadrature,
    subordinated_density_series,
    subordinated_weibull_repr,
)

INF, NAN = math.inf, math.nan
SPEC = SubordinationSpec(3.0, 0.5, 0.5)
STABLE = StableParams(nu=1.5, sigma=1.0, beta=0.0, mu=0.0)
STREAM = SeededStream(1)
PARAMS = PseudoParams(3.0, 0.5, 1.0)

CALLS = {
    "stable_subordinator_pdf t=inf": lambda: stable_subordinator_pdf(1.0, INF, 0.5),
    "stable_subordinator_pdf t=nan": lambda: stable_subordinator_pdf(1.0, NAN, 0.5),
    "stable_subordinator_pdf x=nan": lambda: stable_subordinator_pdf(NAN, 1.0, 0.5),
    "subordinated_char_fn t=nan": lambda: subordinated_char_fn(1.0, SPEC, NAN),
    "subordinated_weibull_repr t=nan": lambda: subordinated_weibull_repr(1.0, SPEC, NAN),
    "subordinated_density_series t=inf": lambda: subordinated_density_series(1.0, SPEC, INF),
    "subordinated_density_quadrature t=nan": lambda: subordinated_density_quadrature(
        1.0, SPEC, NAN
    ),
    "OscillationConstants alpha=nan": lambda: OscillationConstants.for_order(NAN),
    "sample_cauchy_mixture alpha=nan": lambda: sample_cauchy_mixture(NAN, 0.5, 1.0, 10, STREAM),
    "sample_cauchy_mixture t=inf": lambda: sample_cauchy_mixture(2.0, 0.5, INF, 10, STREAM),
    "sample_stable t=inf": lambda: sample_stable(STABLE, INF, 10, STREAM),
    "sample_stable t=nan": lambda: sample_stable(STABLE, NAN, 10, STREAM),
    "WrightArgs z=nan": lambda: wright_series(WrightArgs(0.5, NAN)),
    "WrightArgs theta=nan": lambda: WrightArgs(NAN, -1.0),
    "airy_cdf_tail alpha=nan": lambda: airy_cdf_tail(0.0, NAN),
    "airy_cdf_tail c=nan": lambda: airy_cdf_tail(NAN, 3.0),
    "airy_quadrature x=nan": lambda: airy_quadrature(NAN, 3.0),
    "airy_grid x=nan": lambda: airy_grid([NAN], 3.0),
    "box_kernel_integral b=nan": lambda: box_kernel_integral(-1.0, NAN, 3.0, 0.5, 1.0),
    "box_kernel_integral a=nan": lambda: box_kernel_integral(NAN, 1.0, 3.0, 0.5, 1.0),
    "box_kernel_integral alpha=nan": lambda: box_kernel_integral(-1.0, 1.0, NAN, 0.5, 1.0),
    "box_kernel_integral t=inf": lambda: box_kernel_integral(-INF, INF, 2.0, 0.5, INF),
    "line_total t=nan": lambda: line_total(3.0, 0.5, NAN),
    "cylinder_measure p=nan": lambda: cylinder_measure(
        CylinderEvent((1.0,), ((0.0, 1.0),)), 2.0, NAN
    ),
    "airy_series tol=nan": lambda: airy_series(1.0, AiryOrder(2.0), NAN),
    "AiryOrder alpha=inf": lambda: AiryOrder(INF),
    "PseudoParams p=nan": lambda: PseudoParams(2.0, NAN, 1.0),
    "SubordinationSpec theta=nan": lambda: SubordinationSpec(3.0, NAN, 0.5),
    "classify t=inf": lambda: classify(2.0, 0.5, INF),
    "mode_analysis alpha=nan": lambda: mode_analysis(NAN, 1.0),
    "subordinated_density_series x=nan": lambda: subordinated_density_series(NAN, SPEC, 1.0),
    "subordinated_density_series x=inf": lambda: subordinated_density_series(INF, SPEC, 1.0),
    "airy_series x=nan": lambda: airy_series(NAN, AiryOrder(3.0)),
    "airy_series x=inf": lambda: airy_series(INF, AiryOrder(3.0)),
    "airy_series x=-inf": lambda: airy_series(-INF, AiryOrder(3.0)),
    "density series x=nan": lambda: density(NAN, PARAMS, method="series"),
    "weibull_representation x=nan": lambda: weibull_representation(NAN, PARAMS),
    "weibull_representation x=inf": lambda: weibull_representation(INF, PARAMS),
    "weibull_representation x=-inf": lambda: weibull_representation(-INF, PARAMS),
    "weibull_representation monte_carlo x=nan": lambda: weibull_representation(
        NAN, PARAMS, mode="monte_carlo", n=100
    ),
    "weibull_representation monte_carlo x=inf": lambda: weibull_representation(
        INF, PARAMS, mode="monte_carlo", n=100
    ),
    "weibull_representation monte_carlo x=-inf": lambda: weibull_representation(
        -INF, PARAMS, mode="monte_carlo", n=100
    ),
    "subordinated_weibull_repr x=nan": lambda: subordinated_weibull_repr(NAN, SPEC, 1.0),
    "subordinated_weibull_repr x=inf": lambda: subordinated_weibull_repr(INF, SPEC, 1.0),
    "subordinated_weibull_repr x=-inf": lambda: subordinated_weibull_repr(-INF, SPEC, 1.0),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_finite_parameter_is_a_domain_error(name):
    with pytest.raises(DomainError):
        CALLS[name]()


@pytest.mark.parametrize("theta", [0.3, 0.7])
@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e150, 1e200, 1e300, INF])
def test_subordinator_pdf_at_extreme_x(x, theta):
    """A finite value and no warning: 0.0 where h underflows (the far
    left tail is ~exp(-x^(-theta/(1-theta)))), the power tail
    theta x^(-1-theta)/Gamma(1-theta) where that is a normal float."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stable_subordinator_pdf(x, 1.0, theta)
    log_tail = math.log(theta / math.gamma(1.0 - theta)) - (1.0 + theta) * math.log(x)
    if x > 1.0 and log_tail > math.log(sys.float_info.min):
        assert got == pytest.approx(math.exp(log_tail), rel=1e-12)
    else:
        assert got == 0.0
