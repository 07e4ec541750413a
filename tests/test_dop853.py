"""The numpy-only DOP853 integrator: the same bytes as SciPy's ``solve_ivp``
where SciPy is installed, Brent's search for the event, and the stall path.

The differential tests run ``numeric.integrate`` twice on each problem, once
through ``laxlab._dop853.solve_ivp`` and once through SciPy's ``solve_ivp``
with the same arguments, and compare the CSV text (or the pole message),
``nfev``, ``status``, ``message`` and the event time.  No CSV is stored:
its last digits go through the host's BLAS.
"""

import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import laxlab
from laxlab import _dop853, numeric
from laxlab.numeric import ODEProblem, PoleEncountered

EPS = np.finfo(float).eps
FLOWS = ("pii", "p34", "matrix-pii", "dpii3")
STALLED = ("integration stalled: "
           "Required step size is less than spacing between numbers.")


@pytest.fixture
def scipy_solve_ivp():
    """SciPy's solve_ivp behind the call signature ``numeric`` uses."""
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    def call(fun, t_span, y0, *, t_eval, rtol, atol, event):
        event.terminal = True
        return solve_ivp(fun, t_span, y0, method="DOP853", t_eval=t_eval,
                         rtol=rtol, atol=atol, events=[event])

    return call


def _integrate_with(solver, problem, monkeypatch):
    """``integrate(problem)`` with ``numeric.solve_ivp`` replaced by
    ``solver``: the CSV, or the PoleEncountered text, and the solver's
    result."""
    results = []

    def recording(*args, **kwargs):
        results.append(solver(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(numeric, "solve_ivp", recording)
    try:
        out = numeric.integrate(problem).to_csv()
    except PoleEncountered as exc:
        out = f"PoleEncountered: {exc}"
    (result,) = results
    return out, result


def _assert_same_as_scipy(problem, scipy_solve_ivp, monkeypatch) -> str:
    ours, mine = _integrate_with(_dop853.solve_ivp, problem, monkeypatch)
    theirs, ref = _integrate_with(scipy_solve_ivp, problem, monkeypatch)
    if ours != theirs:
        rows = [
            f"row {i}:\n  ours:  {a}\n  scipy: {b}"
            for i, (a, b) in enumerate(itertools.zip_longest(
                ours.splitlines(), theirs.splitlines()))
            if a != b
        ]
        pytest.fail(f"{len(rows)} rows differ from scipy:\n"
                    + "\n".join(rows[:8]))
    assert (mine.nfev, mine.status, mine.message) == (
        ref.nfev, ref.status, ref.message)
    assert mine.t_events[0].tobytes() == ref.t_events[0].tobytes()
    return ours


def _random_matrix(rng, n, scale=0.3):
    return [[complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
             for _ in range(n)] for _ in range(n)]


def _seeded_problem(rhs, n, grid, z0, z1, seed):
    rng = random.Random(f"dop853:{rhs}:{n}:{grid}:{seed}")
    alpha = rng.uniform(-0.5, 0.5)
    return ODEProblem(
        rhs, alpha=0.0 if rhs == "dpii3" else alpha, n=n, z0=z0, z1=z1,
        u0=_random_matrix(rng, n), du0=_random_matrix(rng, n),
        ddu0=_random_matrix(rng, n) if rhs == "dpii3" else None,
        grid_points=grid,
    )


@pytest.mark.parametrize("grid", [9, 41, 161])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rhs", FLOWS)
def test_integrate_csv_is_scipys(rhs, n, grid, scipy_solve_ivp, monkeypatch):
    z1 = {9: 3.0, 41: 4.0, 161: 5.0}[grid]
    problem = _seeded_problem(rhs, n, grid, 1.0, z1, seed=0)
    out = _assert_same_as_scipy(problem, scipy_solve_ivp, monkeypatch)
    assert out.count("\n") == grid + 1


@pytest.mark.parametrize("rhs", FLOWS)
def test_reverse_span_csv_is_scipys(rhs, scipy_solve_ivp, monkeypatch):
    problem = _seeded_problem(rhs, 2, 41, 5.0, 1.0, seed=1)
    out = _assert_same_as_scipy(problem, scipy_solve_ivp, monkeypatch)
    assert out.splitlines()[1].startswith("5,")


@pytest.mark.parametrize("problem, where", [
    (ODEProblem("p34", alpha=0.7, u0=0.3, du0=-0.2), "3.42556"),
    (ODEProblem("matrix-pii", n=2, u0=[[1.2, 0.3], [0.1, 1.0]], du0=1.0),
     "1.90113"),
    (ODEProblem("dpii3", u0=1.0, du0=1.0, ddu0=1.0, grid_points=41),
     "2.07163"),
], ids=["p34", "matrix-pii", "dpii3"])
def test_pole_message_is_scipys(problem, where, scipy_solve_ivp, monkeypatch):
    out = _assert_same_as_scipy(problem, scipy_solve_ivp, monkeypatch)
    assert out == ("PoleEncountered: |u| exceeded 1e+08 near z = "
                   f"{where}")


_FLOW = numeric._flow


def _stalling_flow(problem):
    """The problem's flow, but NaN past z = 2, so every step that reaches
    past it is rejected until the step size collapses."""
    flow = _FLOW(problem)

    def f(z, y):
        out = flow(z, y)
        return out if z <= 2.0 else np.full_like(out, np.nan)

    return f


def test_collapsing_step_stalls():
    problem = ODEProblem("pii", u0=0.1, du0=0.1, z0=1.0, z1=3.0)
    grid = np.linspace(1.0, 3.0, 9)
    event = numeric._pole_event(problem)
    sol = _dop853.solve_ivp(_stalling_flow(problem), (1.0, 3.0),
                            numeric._pack(problem), t_eval=grid,
                            rtol=problem.rtol, atol=problem.atol,
                            event=event)
    assert sol.status == -1
    assert sol.message == _dop853.TOO_SMALL_STEP
    assert len(sol.t_events[0]) == 0
    # the samples at z = 1, 1.25, 1.5 and 1.75, before the stall, are kept
    assert sol.y.shape == (4, 4)


def test_collapsing_step_is_reported_as_stalled(monkeypatch):
    monkeypatch.setattr(numeric, "_flow", _stalling_flow)
    with pytest.raises(PoleEncountered) as err:
        numeric.integrate(ODEProblem("pii", u0=0.1, du0=0.1, z1=3.0))
    assert str(err.value) == STALLED


def test_collapsing_step_is_scipys(scipy_solve_ivp, monkeypatch):
    monkeypatch.setattr(numeric, "_flow", _stalling_flow)
    problem = ODEProblem("matrix-pii", n=2, u0=0.1, du0=0.1, z1=3.0)
    out = _assert_same_as_scipy(problem, scipy_solve_ivp, monkeypatch)
    assert out == f"PoleEncountered: {STALLED}"


def test_nan_step_size_stalls():
    # A derivative that is NaN from the start makes the starting step NaN.
    # SciPy's rejection loop never ends on it, so the run is a child
    # process with a timeout: a regression fails instead of hanging.
    code = (
        "import numpy as np\n"
        "from laxlab._dop853 import solve_ivp\n"
        "sol = solve_ivp(lambda t, y: np.full(2, np.nan), (1.0, 2.0),\n"
        "                np.ones(2), t_eval=np.linspace(1.0, 2.0, 9),\n"
        "                rtol=1e-10, atol=1e-12, event=lambda t, y: 1.0)\n"
        "print(sol.status, sol.nfev, sol.y.shape)\n"
    )
    package_root = os.path.dirname(os.path.dirname(laxlab.__file__))
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "-1 2 (2, 0)\n"


def test_evaluation_cap_stops_the_run(monkeypatch):
    problem = ODEProblem("pii", u0=0.1, du0=0.1, z0=1.0, z1=3.0)

    def run():
        return _dop853.solve_ivp(
            _FLOW(problem), (1.0, 3.0), numeric._pack(problem),
            t_eval=np.linspace(1.0, 3.0, 9), rtol=problem.rtol,
            atol=problem.atol, event=numeric._pole_event(problem))

    full = run()
    assert full.status == 0 and full.nfev == 209
    monkeypatch.setattr(_dop853, "MAX_NFEV", 60)
    sol = run()
    assert sol.status == -1 and sol.message == _dop853.MAX_NFEV_REACHED
    # the cap is checked before each step, so the last step ends past it
    assert 60 <= sol.nfev < full.nfev
    assert 1.0 < sol.t_last < 3.0
    assert len(sol.t_events[0]) == 0
    # the samples before the stop are those of the full run
    reached = sol.y.shape[1]
    assert reached == 1 + int((sol.t_last - 1.0) / 0.25)
    assert sol.y.tobytes() == full.y[:, :reached].tobytes()


# ---------------------------------------------------------------------------
# Brent's search
# ---------------------------------------------------------------------------
def _within_tol(x, root):
    return abs(x - root) <= _dop853.EVENT_TOL * (1 + abs(root))


@pytest.mark.parametrize("f, a, b, root", [
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, 2.0945514815423265),
    (math.cos, 1.0, 2.0, math.pi / 2),
    (math.cos, 2.0, 1.0, math.pi / 2),
], ids=["cubic", "cos", "cos-reversed"])
def test_brentq_finds_known_roots(f, a, b, root):
    assert _within_tol(_dop853.brentq(f, a, b), root)


def test_brentq_returns_an_end_that_is_a_root():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert _dop853.brentq(f, 1.0, 3.0) == 1.0
    assert _dop853.brentq(f, -2.0, 1.0) == 1.0
    assert len(calls) == 4  # both ends, each time, and nothing more


def test_brentq_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _dop853.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda x: math.nan,
    lambda x: math.nan if x < 0 else x - 0.5,
    lambda x: math.nan if x > 0 else x + 0.5,
], ids=["both-ends", "left-end", "right-end"])
def test_brentq_returns_nan_when_an_end_is_nan(f):
    assert math.isnan(_dop853.brentq(f, -1.0, 1.0))


def test_brentq_tolerance_is_absolute_near_zero():
    # at the root 0 only xtol = 4*EPS is left of the tolerance
    x = _dop853.brentq(math.sin, -1.0, 2.5)
    assert abs(x) <= 4 * EPS


def test_brentq_tolerance_is_relative_far_from_zero():
    root = 1234567.891
    x = _dop853.brentq(lambda x: math.atan(x - root), 0.0, 3e6)
    assert abs(x - root) <= 4 * EPS * (1 + root)


_BRENT_CASES = [
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
    (math.cos, 1.0, 2.0),
    (math.sin, -1.0, 2.5),
    (lambda x: math.exp(x) - 2.0, -3.0, 4.0),
    (lambda x: math.atan(x - 1234567.891), 0.0, 3e6),
    (lambda x: (x - 0.3) ** 5, 0.0, 1.0),  # too flat: neither converges
    (lambda x: math.tanh(40 * (x - 0.7)), -5.0, 9.0),
]


@pytest.mark.parametrize("f, a, b", _BRENT_CASES)
def test_brentq_is_scipys(f, a, b):
    pytest.importorskip("scipy")
    from scipy.optimize import brentq

    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    theirs, info = brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS,
                          full_output=True, disp=False)
    if info.converged:
        assert _dop853.brentq(counted, a, b) == theirs
    else:
        with pytest.raises(RuntimeError,
                           match="Failed to converge after 100 iterations"):
            _dop853.brentq(counted, a, b)
    assert len(calls) == info.function_calls
