##
## Acceptance battery: the ten headline criteria at full scale, one
## pass/fail line each.  The whole battery runs once per session.
##

import pytest

from sl2factor._verify import verify_suite


@pytest.fixture(scope="module")
def battery():
    return verify_suite(seed=7, scale="full")


def _check(battery, number):
    rec = next(c for c in battery["checks"] if c["criterion"] == number)
    status = "PASS" if rec["pass"] else f"FAIL [{rec['code']}]"
    print(f"criterion {number:02d} {rec['name']}: {status}  {rec['details']}")
    return rec


def test_criterion_01_symbolic_unimodularity(battery):
    rec = _check(battery, 1)
    assert rec["pass"], rec["details"]
    assert rec["details"]["lengths"] == list(range(4, 11))
    assert rec["details"]["within_budget"]  # under the 10 s budget


def test_criterion_02_middle_polynomial_values(battery):
    rec = _check(battery, 2)
    assert rec["pass"], rec["details"]


def test_criterion_03_submersive_rank(battery):
    rec = _check(battery, 3)
    assert rec["pass"], rec["details"]
    assert sorted(rec["details"]["per_n"]) == ["4", "5", "6", "7"]
    assert rec["details"]["samples"] == 1000


def test_criterion_04_fiber_completions(battery):
    rec = _check(battery, 4)
    assert rec["pass"], rec["details"]
    assert rec["details"]["generic_even"] >= 100
    assert rec["details"]["nongeneric_even"] >= 50


def test_criterion_05_constant_factorization(battery):
    rec = _check(battery, 5)
    assert rec["pass"], rec["details"]
    assert rec["details"]["count"] == 1000
    assert rec["details"]["diag_rejected_at_3"]
    assert rec["details"]["diag_factored_at_4"]


def test_criterion_06_padding(battery):
    rec = _check(battery, 6)
    assert rec["pass"], rec["details"]
    assert rec["details"]["count"] == 200


def test_criterion_07_cohn_five_factor_grid(battery):
    rec = _check(battery, 7)
    assert rec["pass"], rec["details"]
    assert rec["details"]["grid"] == 41
    assert rec["details"]["worst_residual"] < 1e-10
    assert rec["details"]["within_budget"]  # under the 5 s budget


def test_criterion_08_cohn_four_family(battery):
    rec = _check(battery, 8)
    assert rec["pass"], rec["details"]
    assert rec["details"]["count"] == 200


def test_criterion_09_degree_facts(battery):
    rec = _check(battery, 9)
    assert rec["pass"], rec["details"]
    d = rec["details"]
    assert d["winding_radii_ok"]
    assert d["divisors"] == [0, -1, 1, 0]
    assert d["certificate_verdict"] is True
    assert tuple(d["continuation"]) == (2, -2)
    assert d["shrink_all_zero"]
    assert d["unit_degree_zero"]


def test_criterion_10_flow_conservation(battery):
    rec = _check(battery, 10)
    assert rec["pass"], rec["details"]
    assert rec["details"]["starts"] == 50
    assert rec["details"]["worst_drift"] < 1e-8


def test_criterion_10_drift_stays_at_rounding_level(battery):
    # the affine RK4 step in increment form keeps the drift near 6e-15 on
    # this draw; multiplying by a precomputed growth factor instead drifted
    # to 2e-13
    rec = _check(battery, 10)
    assert rec["details"]["worst_drift"] <= 2e-14


def test_every_criterion_reports_its_time(battery):
    times = [c["timing_ms"] for c in battery["checks"]]
    assert len(times) == 10
    assert all(isinstance(t, float) and t >= 0 for t in times)
