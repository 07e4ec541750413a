"""Numeric-harness tests: closed-form oracles, residual independence,
tolerance behavior, matrix flows, pole handling, CSV export."""

import csv
import io
import itertools

import numpy as np
import pytest

from laxlab import _dop853, catalog, numeric
from laxlab.ncexpr import parse
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
    assert dpii_first_integral_check((0.3, -0.1, 0.2)) < 1e-7
    assert dpii_first_integral_check((0.0, 0.0, 0.0)) < 1e-12


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
    assert a.states.tobytes() == b.states.tobytes()
    assert a.to_csv() == b.to_csv()


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
    tr = integrate(ODEProblem("dpii3", n=2, z0=1.0, z1=2.0, u0=u0, du0=du0,
                              ddu0=ddu0))
    assert _first_integral_drift(tr) < 1e-7


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
    with pytest.raises(NumericError, match="dpii3 takes no alpha"):
        ODEProblem("dpii3", alpha=5, ddu0=0.1)
    for zero in (0.0, -0.0, 0j):
        assert ODEProblem("dpii3", alpha=zero, ddu0=0.1).alpha == 0


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
    {"rtol": 1e-20},
])
def test_problem_rejects_non_finite_data_and_bad_tolerances(bad):
    with pytest.raises(NumericError):
        ODEProblem(**{"rhs": "pii", **bad})


def test_rtol_floor_is_accepted():
    # laxlab's own floor, 100 machine epsilons, is itself accepted
    problem = ODEProblem("pii", rtol=numeric.RTOL_FLOOR)
    assert problem.rtol == 100 * np.finfo(float).eps


def test_pole_detection_reports_location():
    with pytest.raises(PoleEncountered) as err:
        integrate(ODEProblem("p34", alpha=0.7, u0=0.3, du0=-0.2,
                             z0=1.0, z1=5.0))
    assert "3.4" in str(err.value)


def test_map_check_rejects_vanishing_denominator():
    # u = 0 on the p34 flow gives p = z/2 which stays away from zero, so
    # force a crossing instead: u' = -z/2 - u^2 at the left end
    with pytest.raises(NumericError, match=r"p\(z\) passes too close"):
        p34_map_check(0.0, (0.0, -0.5))


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


def test_smallest_grid_audits_only_points_the_stencil_fits():
    # grid_points=9 is the fewest the problem accepts: the 7-point stencil
    # fits at 3 points, the 9-point one at a single point
    for rhs, extra, finite in (("pii", {}, [3, 4, 5]),
                               ("dpii3", {"ddu0": 0.1}, [4])):
        tr = integrate(ODEProblem(rhs, u0=0.2, du0=-0.1, z0=1.0, z1=1.5,
                                  grid_points=9, **extra))
        assert np.flatnonzero(np.isfinite(tr.fd_residual)).tolist() == finite
        rows = list(csv.DictReader(io.StringIO(tr.to_csv())))
        assert [k for k, row in enumerate(rows) if row["fd_residual"]] == finite


# ---------------------------------------------------------------------------
# the grid-wide audit is bitwise equal to the point-by-point one
# ---------------------------------------------------------------------------
def _ref_stencil(samples, weights, k, h, order):
    half = (len(weights) - 1) // 2
    window = samples[k - half : k + half + 1]
    return np.tensordot(weights, window, axes=(0, 0)) / h**order


def _ref_second_rhs(rhs, z, u, alpha, n):
    cube = u @ u @ u
    eye = np.eye(n, dtype=complex)
    if rhs == "p34":
        return 2.0 * cube + z * u - alpha * eye
    return 2.0 * cube - z * u + alpha * eye


def _ref_third_rhs(z, u, du):
    spread = du @ u @ u + u @ du @ u + u @ u @ du
    return 2.0 * spread - u / 3.0 - z * du / 3.0


def _ref_fd_residual(problem, grid, states):
    g = len(grid)
    h = grid[1] - grid[0]
    res = np.full(g, np.nan)
    u = states[:, 0]
    if problem.depth == 2:
        for k in range(3, g - 3):
            d2 = _ref_stencil(u, numeric._W7_D2, k, h, 2)
            want = _ref_second_rhs(problem.rhs, grid[k], u[k], problem.alpha,
                                   problem.n)
            res[k] = np.max(np.abs(d2 - want))
    else:
        for k in range(4, g - 4):
            d3 = _ref_stencil(u, numeric._W9_D3, k, h, 3)
            d1 = _ref_stencil(u, numeric._W9_D1, k, h, 1)
            want = _ref_third_rhs(grid[k], u[k], d1)
            res[k] = np.max(np.abs(d3 - want))
    return res


def _generic(n, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return scale * (rng.uniform(-1, 1, (n, n))
                    + 1j * rng.uniform(-1, 1, (n, n)))


def _flow_extra(rhs, n, alpha):
    """The alpha, or for dpii3, which has none, the initial u''."""
    if rhs == "dpii3":
        return {"ddu0": _generic(n, 3, 0.2)}
    return {"alpha": alpha}


@pytest.mark.parametrize("weights,order", [
    (numeric._W7_D1, 1), (numeric._W7_D2, 2),
    (numeric._W9_D1, 1), (numeric._W9_D3, 3),
])
@pytest.mark.parametrize("g", [9, 10, 41])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("grid_fastest", [False, True])
def test_stencil_matches_point_by_point(weights, order, g, n, grid_fastest):
    # The solver's (G, depth, n, n) samples come with either the entries or
    # the grid points adjacent in memory; noise samples make any change of
    # BLAS kernel show in the last bits.
    rng = np.random.default_rng(g * 10 + n)
    data = (rng.uniform(-1, 1, (2 * n * n, g))
            + 1j * rng.uniform(-1, 1, (2 * n * n, g)))
    rows = data.T if grid_fastest else np.ascontiguousarray(data.T)
    states = rows.reshape(g, 2, n, n)
    for samples in (states[:, 0], data[0]):
        half = (len(weights) - 1) // 2
        h = 0.0123
        want = np.array([_ref_stencil(samples, weights, k, h, order)
                         for k in range(half, g - half)])
        got = numeric._stencil(samples, weights, h, order)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rhs,n", [
    ("pii", 2), ("pii", 3), ("p34", 2), ("p34", 3),
    ("matrix-pii", 2), ("matrix-pii", 3), ("dpii3", 1), ("dpii3", 2),
])
@pytest.mark.parametrize("grid_points", [161, 10, 9])
def test_fd_residual_matches_point_by_point(rhs, n, grid_points):
    # On the coarse grids the solver steps less than one grid spacing and
    # returns the samples with the grid points adjacent in memory.
    problem = ODEProblem(rhs, n=n, z0=1.0, z1=3.0, u0=_generic(n, 1),
                         du0=_generic(n, 2), grid_points=grid_points,
                         **_flow_extra(rhs, n, 0.4 - 0.1j))
    tr = integrate(problem)
    want = _ref_fd_residual(problem, tr.grid, tr.states)
    assert np.array_equal(tr.fd_residual, want, equal_nan=True)


def _ref_csv_rows(tr) -> str:
    """The CSV data rows written one formatted value at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    n = tr.problem.n
    for k, z in enumerate(tr.grid):
        row = [f"{z:.12g}"]
        for b in range(tr.states.shape[1]):
            for r in range(n):
                for c in range(n):
                    v = tr.states[k, b, r, c]
                    row += [f"{v.real:.16e}", f"{v.imag:.16e}"]
        res = tr.fd_residual[k]
        row.append("" if np.isnan(res) else f"{res:.6e}")
        writer.writerow(row)
    return out.getvalue()


@pytest.mark.parametrize("rhs,n", [
    ("pii", 1), ("p34", 1), ("matrix-pii", 2), ("matrix-pii", 3),
    ("dpii3", 1), ("dpii3", 2),
])
@pytest.mark.parametrize("grid_points", [161, 10, 9])
def test_csv_rows_match_per_value_formatting(rhs, n, grid_points):
    problem = ODEProblem(rhs, n=n, z0=1.0, z1=3.0, u0=_generic(n, 1),
                         du0=_generic(n, 2), grid_points=grid_points,
                         **_flow_extra(rhs, n, 0.4 - 0.1j))
    tr = integrate(problem)
    assert np.isnan(tr.fd_residual).any()  # rows with an empty cell
    _, _, rows = tr.to_csv().partition("\n")
    assert rows == _ref_csv_rows(tr)


@pytest.mark.parametrize("alpha,ic", [
    (0.7, (0.3, -0.2)),
    (-0.35, (0.1 + 0.2j, 0.25 - 0.1j)),
    (0.123, (-0.3 + 0.05j, 0.2j)),
])
def test_p34_map_check_matches_point_by_point(alpha, ic):
    result = p34_map_check(alpha, ic)
    tr = integrate(ODEProblem("p34", alpha=alpha, z0=1.0, z1=2.5, u0=ic[0],
                              du0=ic[1], rtol=1e-12, atol=1e-14,
                              grid_points=121))
    z, u, du = tr.grid, tr.u[:, 0, 0], tr.du[:, 0, 0]
    p = u * u + du + z / 2.0
    h = z[1] - z[0]
    for tag, shift in (("q", -0.5), ("r", 0.5)):
        coeff = (complex(alpha) + shift) ** 2
        worst = 0.0
        for k in range(3, len(z) - 3):
            d1 = _ref_stencil(p, numeric._W7_D1, k, h, 1)
            d2 = _ref_stencil(p, numeric._W7_D2, k, h, 2)
            pk = p[k]
            r = (d2 - d1 * d1 / (2.0 * pk) - 2.0 * pk * pk + z[k] * pk
                 + coeff / (2.0 * pk))
            worst = max(worst, abs(r))
        assert result[f"residual_{tag}"] == worst


def _first_integral_drift(tr):
    """The drift of u'' - 2*u^3 + z*u/3 along ``tr``, point by point."""
    vals = np.array([tr.ddu[k] - 2.0 * (tr.u[k] @ tr.u[k] @ tr.u[k])
                     + tr.grid[k] * tr.u[k] / 3.0
                     for k in range(len(tr.grid))])
    return float(np.max(np.abs(vals - vals[0])))


def test_dpii_first_integral_matches_point_by_point():
    ic = (_generic(1, 4), _generic(1, 5), _generic(1, 6, 0.2))
    drift = dpii_first_integral_check(ic)
    tr = integrate(ODEProblem("dpii3", z0=1.0, z1=4.0, u0=ic[0], du0=ic[1],
                              ddu0=ic[2]))
    assert drift == _first_integral_drift(tr)


def test_dpii3_conserves_first_integral_at_n2():
    tr = integrate(ODEProblem("dpii3", n=2, z0=1.0, z1=2.0, u0=_generic(2, 4),
                              du0=_generic(2, 5), ddu0=_generic(2, 6, 0.2)))
    assert _first_integral_drift(tr) < 1e-9


def _ref_flow(problem, z, y):
    """The flow's derivative vector from the stacked numpy right-hand
    side."""
    n, depth = problem.n, problem.depth
    m = depth * n * n
    blocks = (y[:m] + 1j * y[m:]).reshape(depth, n, n)
    if depth == 2:
        top = _ref_second_rhs(problem.rhs, z, blocks[0], problem.alpha, n)
    else:
        top = _ref_third_rhs(z, blocks[0], blocks[1])
    flat = np.stack([*blocks[1:], top]).reshape(m)
    return np.concatenate([flat.real, flat.imag])


@pytest.mark.parametrize("rhs,n", [
    ("pii", 1), ("p34", 1), ("matrix-pii", 1), ("matrix-pii", 2),
    ("matrix-pii", 3), ("dpii3", 1), ("dpii3", 2),
])
def test_flow_matches_stacked_right_hand_side(rhs, n):
    # bytes, not values: -0.0 == 0.0, but the two print differently
    problem = ODEProblem(rhs, n=n, **_flow_extra(rhs, n, 0.3 + 0.2j))
    f = numeric._flow(problem)
    rng = np.random.default_rng(n)
    for z in (1.0, 2.7, -0.4):
        y = rng.uniform(-1, 1, 2 * problem.depth * n * n)
        assert f(z, y).tobytes() == _ref_flow(problem, z, y).tobytes()


def _scalar_states(depth, rng):
    """n = 1 states: every slot +0, -0 or a random value of either sign
    (so all-zero and purely real states among them), and |u| near 1e4 and
    1e8."""
    noise = rng.uniform(0.1, 1, 2 * depth)
    for pick in itertools.product(range(4), repeat=2 * depth):
        yield np.array([(0.0, -0.0, v, -v)[k] for k, v in zip(pick, noise)])
    for scale in (1e4, 1e8):
        for sign_re, sign_im in itertools.product((1, -1), repeat=2):
            y = rng.uniform(-1, 1, 2 * depth)
            y[0] = sign_re * scale * (0.8 + 1e-3 * y[0])
            y[depth] = sign_im * scale * (0.6 + 1e-3 * y[depth])
            yield y


_SCALAR_ZS = (0.0, -0.0, -0.4, -3.25, 1.0, 2.7)


@pytest.mark.parametrize("rhs,alpha", [
    ("pii", 0.3 + 0.2j), ("pii", 0.0), ("pii", -0.0), ("p34", -0.7 + 0.1j),
    ("p34", 0.0), ("p34", -0.0), ("matrix-pii", 0.5 - 0.25j),
    ("matrix-pii", complex(-0.0, 0.2)), ("dpii3", 0.0),
])
def test_scalar_flow_matches_numpy_bitwise(rhs, alpha):
    # The n = 1 path computes on Python complex numbers; every slot of the
    # state and of the derivative keeps numpy's bits, signed zeros too.
    extra = {"ddu0": 0.1} if rhs == "dpii3" else {}
    problem = ODEProblem(rhs, alpha=alpha, **extra)
    f = numeric._flow(problem)
    rng = np.random.default_rng(7)
    for y in _scalar_states(problem.depth, rng):
        for z in _SCALAR_ZS:
            for zz in (z, np.float64(z)):
                got = f(zz, y)
                assert got.tobytes() == _ref_flow(problem, zz, y).tobytes(), (
                    f"z = {zz!r}, y = {y.tolist()}")


def _integrate_with_nfev(problem, monkeypatch):
    """The CSV, or the PoleEncountered text, and the solver's ``nfev``."""
    results = []

    def recording(*args, **kwargs):
        results.append(_dop853.solve_ivp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(numeric, "solve_ivp", recording)
    try:
        out = integrate(problem).to_csv()
    except PoleEncountered as exc:
        out = f"PoleEncountered: {exc}"
    (result,) = results
    return out, result.nfev


@pytest.mark.parametrize("problem", [
    ODEProblem("pii", alpha=0.3, z0=1.0, z1=3.0, u0=0.2 + 0.1j, du0=-0.1),
    ODEProblem("pii", alpha=-0.25, z0=5.0, z1=1.0, u0=0.1, du0=0.05j,
               grid_points=41),
    ODEProblem("pii", z0=-2.0, z1=2.0, u0=-0.0, du0=complex(-0.0, -0.0)),
    ODEProblem("p34", alpha=0.4, z0=1.0, z1=2.0, u0=0.1 - 0.2j, du0=0.3),
    ODEProblem("p34", alpha=0.7, u0=0.3, du0=-0.2, z0=1.0, z1=5.0),
    ODEProblem("p34", z0=3.0, z1=1.0, u0=0.0, du0=0.0, grid_points=9),
    ODEProblem("matrix-pii", alpha=1.0, u0=1.0, du0=-1.0),
    ODEProblem("matrix-pii", alpha=0.1j, z0=3.0, z1=1.0, u0=0.2, du0=0.1),
    ODEProblem("dpii3", z0=1.0, z1=3.0, u0=0.3 + 0.1j, du0=-0.2,
               ddu0=0.05),
    ODEProblem("dpii3", z0=2.0, z1=-2.0, u0=0.1, du0=-0.0, ddu0=0.0,
               grid_points=41),
    ODEProblem("dpii3", u0=1.0, du0=1.0, ddu0=1.0, grid_points=41),
], ids=["pii", "pii-reverse", "pii-minus-zero", "p34", "p34-pole",
        "p34-reverse-zero", "matrix-pii", "matrix-pii-reverse", "dpii3",
        "dpii3-reverse", "dpii3-pole"])
def test_scalar_flow_integrates_as_the_numpy_flow(problem, monkeypatch):
    # The whole run, step control and event included, through the n = 1
    # path and through the numpy closure it replaces: the same CSV bytes or
    # pole text, after the same number of right-hand-side evaluations.
    fast = _integrate_with_nfev(problem, monkeypatch)
    monkeypatch.setattr(numeric, "_flow", numeric._matrix_flow)
    assert _integrate_with_nfev(problem, monkeypatch) == fast


# ---------------------------------------------------------------------------
# the flows satisfy the catalog entries they integrate
# ---------------------------------------------------------------------------
def _evaluate(expr, values, z, alpha):
    """``expr`` as a numpy matrix, and the sum of its terms' sizes: a word
    is the ordered product of ``values[(gen, order)]``, z and alpha are
    scalars.  A term in lam or hbar, or an inverse, has no value here."""
    n = next(iter(values.values())).shape[0]
    total = np.zeros((n, n), dtype=complex)
    size = 0.0
    for word, coeff in expr.terms.items():
        c = 0j
        for (lam, hbar, power), q in coeff.terms.items():
            if lam or hbar:
                raise ValueError(f"{expr}: a term in lam or hbar")
            c += complex(q.a, q.b) / q.d * alpha ** power
        term = c * np.eye(n, dtype=complex)
        for atom in word:
            if atom.inv:
                raise ValueError(f"{expr}: an inverse atom")
            if atom == ("z", 0, False):
                term = z * term
            else:
                term = term @ values[atom.gen, atom.order]
        total += term
        size += np.max(np.abs(term))
    return total, size


# each flow: the catalog key it integrates, and the sign with which the
# flow's alpha enters that key's alpha
_FLOW_ENTRIES = {
    "pii": ("pii-classical", 1),
    "matrix-pii": ("matrix-pii-target", 1),
    "p34": ("pii-classical-derived", -1),
    "dpii3": ("dpii-scalar", 1),
}


@pytest.mark.parametrize("rhs,n", [
    *((rhs, n) for rhs in ("pii", "matrix-pii", "p34") for n in (1, 2, 3)),
    ("dpii3", 1),
])
def test_flow_satisfies_its_catalog_entry(rhs, n):
    key, sign = _FLOW_ENTRIES[rhs]
    lhs = catalog.build(key).lhs
    rng = np.random.default_rng(10 * n + len(rhs))
    for _ in range(5):
        alpha = complex(*rng.uniform(-1, 1, 2))
        problem = ODEProblem(rhs, n=n, **_flow_extra(rhs, n, alpha))
        depth = problem.depth
        blocks = (rng.uniform(-1, 1, (depth, n, n))
                  + 1j * rng.uniform(-1, 1, (depth, n, n)))
        z = rng.uniform(-3, 3)
        flat = blocks.reshape(-1)
        dy = numeric._flow(problem)(z, np.concatenate([flat.real, flat.imag]))
        top = (dy[:flat.size] + 1j * dy[flat.size:]).reshape(depth, n, n)[-1]
        values = {("u", k): b for k, b in enumerate(blocks)}
        values["u", depth] = top
        residual, size = _evaluate(lhs, values, z, sign * problem.alpha)
        assert np.max(np.abs(residual)) <= 1e-12 * size
        if problem.alpha:
            # the other sign of alpha is not the flow's equation
            residual, size = _evaluate(lhs, values, z, -sign * problem.alpha)
            assert np.max(np.abs(residual)) > 1e-6 * size


def test_catalog_evaluator_rejects_lam_and_hbar():
    values = {("u", 0): np.eye(2, dtype=complex)}
    residual, size = _evaluate(parse("2*z*u - alpha"), values, 0.5, 1.0)
    assert not residual.any() and size == 2.0
    for text in ("hbar*u", "lam*u", "lam^-1", "q^-1"):
        with pytest.raises(ValueError):
            _evaluate(parse(text), values, 0.5, 1.0)
