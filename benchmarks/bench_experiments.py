"""Regenerate each of the paper's tables, figures and section studies
(see repro.harness.experiments); ``-k fig3`` selects one."""

import pytest

from repro.harness import DEFAULT_ORDER


@pytest.mark.parametrize("exp_id", DEFAULT_ORDER)
def test_experiment(experiment, exp_id):
    experiment(exp_id)
