"""Numeric-harness tests: closed-form oracles, residual independence,
tolerance behavior, matrix flows, pole handling, CSV export."""

import csv
import io

import numpy as np
import pytest

from laxlab import numeric
from laxlab.numeric import (
    NumericError,
    ODEProblem,
    PoleEncountered,
    dpii_first_integral_check,
    integrate,
    p34_map_check,
)


def _pii_exact(alpha=1.0, u0=1.0, du0=-1.0, **kw):
    return integrate(ODEProblem("pii", alpha=alpha, u0=u0, du0=du0, **kw))


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------
def test_pii_rational_solution():
    tr = _pii_exact()
    err = np.max(np.abs(tr.u[:, 0, 0] - 1.0 / tr.grid))
    assert err < 1e-8
    assert tr.max_fd_residual() < 1e-6


def test_pii_zero_solution():
    tr = integrate(ODEProblem("pii", alpha=0.0, u0=0.0, du0=0.0))
    assert np.max(np.abs(tr.u)) < 1e-12


def test_p34_closed_form_p_half_z():
    # u = -1/(2z) + z/2 ... not needed: drive p34 directly at p-level via
    # the map check's closed-form cases
    result = p34_map_check(1.0, (1.0, -1.0))
    assert result["residual_q"] < 1e-6
    assert result["residual_r"] > 1e-2
    assert result["winner"] == "q"


def test_p34_map_alpha_zero_coincident():
    result = p34_map_check(0.0, (0.0, 0.0))
    assert result["coincident_pairings"]
    assert result["residual_q"] < 1e-6


def test_p34_map_generic_separates_pairings():
    result = p34_map_check(0.7, (0.3, -0.2))
    assert result["winner"] == "q"
    assert result["residual_q"] < 1e-6
    assert result["residual_r"] > 1e-2


def test_p34_map_wrong_convention_raises():
    with pytest.raises(NumericError):
        p34_map_check(0.7, (0.3, -0.2), rhs="pii")


def test_dpii_first_integral_constant():
    result = dpii_first_integral_check((0.3, -0.1, 0.2))
    assert result["drift"] < 1e-7
    assert result["integral"] == "u'' - 2*u^3 + (1/3)*z*u"
    rest = dpii_first_integral_check((0.0, 0.0, 0.0))
    assert rest["drift"] < 1e-12


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------
def test_tolerance_tightening_monotone_within_factor_two():
    errs = []
    for rtol, atol in ((1e-6, 1e-8), (1e-10, 1e-12), (1e-12, 1e-14)):
        tr = _pii_exact(rtol=rtol, atol=atol)
        errs.append(float(np.max(np.abs(tr.u[:, 0, 0] - 1.0 / tr.grid))))
    assert errs[1] < 2 * errs[0]
    assert errs[2] < 2 * errs[1]
    assert errs[2] < errs[0]


def test_matrix_flow_n1_equals_scalar_flow():
    a = integrate(ODEProblem("pii", alpha=1.0, u0=1.0, du0=-1.0))
    b = integrate(ODEProblem("matrix-pii", alpha=1.0, n=1, u0=1.0, du0=-1.0))
    assert np.max(np.abs(a.states - b.states)) < 1e-12


def test_reverse_integration_returns_to_start():
    fwd = integrate(ODEProblem("pii", alpha=1.0, z0=1.0, z1=3.0,
                               u0=1.0, du0=-1.0))
    back = integrate(ODEProblem(
        "pii", alpha=1.0, z0=3.0, z1=1.0,
        u0=complex(fwd.u[-1, 0, 0]), du0=complex(fwd.du[-1, 0, 0]),
    ))
    assert abs(back.u[-1, 0, 0] - 1.0) < 1e-6
    assert abs(back.du[-1, 0, 0] + 1.0) < 1e-6


def test_diagonal_initial_data_stays_diagonal():
    u0 = np.diag([0.3 + 0j, -0.2 + 0j])
    du0 = np.diag([-0.1 + 0j, 0.05 + 0j])
    tr = integrate(ODEProblem("matrix-pii", alpha=0.5, n=2, z0=1.0, z1=2.5,
                              u0=u0, du0=du0))
    off = np.concatenate([np.abs(tr.u[:, 0, 1]), np.abs(tr.u[:, 1, 0])])
    assert np.max(off) < 1e-12
    # and each diagonal entry follows the scalar flow with its own data
    s0 = integrate(ODEProblem("pii", alpha=0.5, z0=1.0, z1=2.5,
                              u0=0.3, du0=-0.1))
    assert np.max(np.abs(tr.u[:, 0, 0] - s0.u[:, 0, 0])) < 1e-9


def test_dpii3_ordered_cube_differs_from_scalar_for_noncommuting_data():
    # non-normal initial data: the ordered triple product is the only
    # correct reading; integration must still conserve the first integral
    u0 = np.array([[0.2 + 0j, 0.1], [0.0, -0.1]])
    du0 = np.array([[0.0 + 0j, -0.05], [0.05, 0.1]])
    ddu0 = np.array([[0.05 + 0j, 0.0], [0.1, -0.05]])
    result = dpii_first_integral_check((u0, du0, ddu0), span=(1.0, 2.0), n=2)
    assert result["drift"] < 1e-7


# ---------------------------------------------------------------------------
# problem validation and failure modes
# ---------------------------------------------------------------------------
def test_problem_validation():
    with pytest.raises(NumericError):
        ODEProblem("p35")
    with pytest.raises(NumericError):
        ODEProblem("pii", n=0)
    with pytest.raises(NumericError):
        ODEProblem("pii", grid_points=4)
    with pytest.raises(NumericError):
        ODEProblem("pii", z0=1.0, z1=1.0)
    with pytest.raises(NumericError):
        ODEProblem("pii", ddu0=0.1)
    with pytest.raises(NumericError):
        ODEProblem("dpii3")  # needs ddu0


@pytest.mark.parametrize("bad", [
    {"z0": float("nan")},
    {"z1": float("inf")},
    {"alpha": complex("nanj")},
    {"u0": complex("nanj")},
    {"du0": float("-inf")},
    {"rhs": "matrix-pii", "n": 2, "u0": [[0.1, float("nan")], [0.0, 0.1]]},
    {"rhs": "dpii3", "ddu0": float("inf")},
    {"rtol": 0.0, "atol": 0.0},
    {"rtol": -1.0},
    {"atol": -1e-12},
    {"rtol": float("nan")},
])
def test_problem_rejects_non_finite_data_and_bad_tolerances(bad):
    with pytest.raises(NumericError):
        ODEProblem(**{"rhs": "pii", **bad})


def test_pole_detection_reports_location():
    with pytest.raises(PoleEncountered) as err:
        integrate(ODEProblem("p34", alpha=0.7, u0=0.3, du0=-0.2,
                             z0=1.0, z1=5.0))
    assert "3.4" in str(err.value)


def test_map_check_rejects_vanishing_denominator():
    # u = 0 on the p34 flow gives p = z/2 which stays away from zero, so
    # force a crossing instead: u' = -z/2 - u^2 at the left end
    with pytest.raises(NumericError):
        p34_map_check(0.0, (0.0, -0.5), span=(1.0, 1.5))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------
def test_csv_round_trip_and_layout():
    tr = _pii_exact()
    text = tr.to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(tr.grid)
    header = text.splitlines()[0].split(",")
    assert header == ["z", "u_re_0_0", "u_im_0_0", "du_re_0_0", "du_im_0_0",
                      "fd_residual"]
    mid = rows[len(rows) // 2]
    k = len(rows) // 2
    assert abs(float(mid["u_re_0_0"]) - tr.u[k, 0, 0].real) < 1e-15
    assert float(mid["fd_residual"]) < 1e-6
    # boundary rows carry no residual (the centered stencil needs margin)
    assert rows[0]["fd_residual"] == ""
    assert rows[-1]["fd_residual"] == ""


def test_csv_third_order_has_ddu_block():
    tr = integrate(ODEProblem("dpii3", u0=0.3, du0=-0.1, ddu0=0.2,
                              z0=1.0, z1=2.0))
    header = tr.to_csv().splitlines()[0].split(",")
    assert "ddu_re_0_0" in header and "ddu_im_0_0" in header
