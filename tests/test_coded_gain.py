"""One coded-gain rule: ``experiments.coded_gain_of``.

The scenario (:class:`~vccsim.experiments.Scenario`) and the delivery
scheme's placement (:func:`~vccsim.caching.build_placement`) both read it,
so they accept and reject the same ``(num_states, cache_fraction)`` pairs,
with the same message, and agree on the gain.
"""

from fractions import Fraction

import pytest

from vccsim.caching import build_placement
from vccsim.errors import InvalidConfigurationError
from vccsim.experiments import Scenario


def _outcome(build):
    """``("ok", coded gain)`` or ``("rejected", message)`` of one build."""
    try:
        return "ok", build().coded_gain
    except InvalidConfigurationError as exc:
        return "rejected", str(exc)


@pytest.mark.parametrize("num_states, gamma, accepted", [
    (5, Fraction(4, 5), True),
    (5, Fraction(0), True),
    (1, Fraction(0), True),
    (6, Fraction(1, 2), True),
    (2, Fraction(1, 2), True),
    (5, Fraction(1), False),     # a full cache
    (1, Fraction(1), False),
    (5, Fraction(1, 3), False),  # a non-integer product
    (4, Fraction(1, 3), False),
    (5, Fraction(6, 5), False),  # gamma > 1
    (2, Fraction(2), False),
    (5, Fraction(-1, 5), False),
    (0, Fraction(0), False),     # no cache states
    (0, Fraction(1, 2), False),
])
def test_scenario_and_placement_agree(num_states, gamma, accepted):
    users = 2 * max(num_states, 1)
    scenario = _outcome(lambda: Scenario(
        geometry=None, noise_power=1.0, num_states=num_states,
        cache_fraction=gamma, antennas_per_user=1, users_per_group=1,
    ))
    placement = _outcome(lambda: build_placement(num_states, gamma, users, users))
    assert scenario == placement
    assert (scenario[0] == "ok") == accepted
    if accepted:
        assert scenario[1] == num_states * gamma + 1
