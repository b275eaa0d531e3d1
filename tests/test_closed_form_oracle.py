"""Closed forms against a 420-digit mpmath evaluation of their defining
expressions, over the whole served domain.

The oracle evaluates the definitions kappa = 1 + alpha + beta - 2 delta and
F_AB = (alpha + 2)/((alpha + 2) kappa - 2 (delta - gamma)^2) literally, with
enough digits to absorb their cancellation up to alpha = 1e300. It shares no
algebra with the package, which evaluates rationalised forms.
"""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telegame import DomainError, channel_params, f_ab_coop, f_ac_coop, f_noncoop, kappa, sweep
from telegame.channel import _ALPHA_MAX

RTOL = 2e-15
EDGE_ALPHAS = (0.5, 2.0, 1e154, 1e160, 1e300, _ALPHA_MAX)

# alpha log-uniform on [1/2, 1e300]
alphas = st.floats(math.log10(0.5), 300.0).map(lambda e: min(max(10.0**e, 0.5), 1e300))


def oracle(alpha: float) -> dict:
    with mpmath.workdps(420):
        a = mpmath.mpf(alpha)
        beta, gamma = (a + 1) / 2, a / 2
        delta = mpmath.sqrt((2 * a - 1) * (a + 1)) / 2
        kap = 1 + a + beta - 2 * delta
        return {
            "delta": delta,
            "kappa": kap,
            "f_noncoop": 1 / kap,
            "f_ab_coop": (a + 2) / ((a + 2) * kap - 2 * (delta - gamma) ** 2),
            "f_ac_coop": 1 / (kap + 1),
        }


def rel_err(got: float, want) -> float:
    with mpmath.workdps(420):
        if want == 0:
            return abs(got)
        return float(abs((mpmath.mpf(got) - want) / want))


def evaluate(alpha: float) -> dict:
    return {
        "delta": channel_params(alpha).delta,
        "kappa": kappa(alpha),
        "f_noncoop": f_noncoop(alpha),
        "f_ab_coop": f_ab_coop(alpha),
        "f_ac_coop": f_ac_coop(alpha),
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(alphas)
@example(0.5)
@example(1e154)
@example(1e160)
@example(1e300)
def test_closed_forms_match_oracle(alpha):
    want = oracle(alpha)
    for name, got in evaluate(alpha).items():
        assert rel_err(got, want[name]) <= RTOL, (name, alpha, got)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(alphas)
def test_fidelities_are_probabilities(alpha):
    for fn in (f_noncoop, f_ab_coop, f_ac_coop):
        assert 0.0 < fn(alpha) <= 1.0


@pytest.mark.parametrize("alpha", EDGE_ALPHAS)
def test_edge_values_are_accurate(alpha):
    want = oracle(alpha)
    for name, got in evaluate(alpha).items():
        assert math.isfinite(got) and rel_err(got, want[name]) <= RTOL, (name, got)


def test_helped_fidelity_limit():
    assert abs(f_ab_coop(1e300) - (2.0 + math.sqrt(2.0)) / 4.0) <= 1e-15


@pytest.mark.parametrize("fn", [channel_params, kappa, f_noncoop, f_ab_coop, f_ac_coop,
                                pytest.param(lambda a: sweep(a, 1.0, 3), id="sweep-alpha-min"),
                                pytest.param(lambda a: sweep(0.5, a, 3), id="sweep-alpha-max")])
@pytest.mark.parametrize("alpha", [math.nextafter(_ALPHA_MAX, math.inf), 1.7e308])
def test_past_the_edge_raises(fn, alpha):
    with pytest.raises(DomainError, match="overflows"):
        fn(alpha)


def test_closed_forms_build_no_channel_params(monkeypatch):
    # path 1 shares only the alpha check with the pipeline's channel_params
    from telegame import channel

    def forbidden(*args):
        raise AssertionError("a closed form built ChannelParams")

    monkeypatch.setattr(channel, "ChannelParams", forbidden)
    for fn in (kappa, f_noncoop, f_ab_coop, f_ac_coop):
        assert math.isfinite(fn(5.76))
