"""Complex ODE harness for the scalar and matrix flows.

Integrates the second-order flows (``pii``, ``p34``, ``matrix-pii``) and the
third-order flow (``dpii3``) for N x N complex matrix unknowns along a real
interval, then audits every trajectory with finite-difference residuals that
are computed independently of the integrator: the sampled values of u alone
are differenced with high-order central stencils and compared against the
right-hand side.  The audit is computed over the whole grid at once: one
matrix product per stencil, one right-hand-side evaluation per residual.

Conventions: each flow solves one catalog entry, named here with the sign
its alpha takes in that entry, as ``tests/test_numeric.py`` checks.

* ``pii``:         u'' = 2*u^3 - z*u + alpha, ``pii-classical``, same alpha
* ``matrix-pii``:  u'' = 2*u^3 - z*u + alpha, ``matrix-pii-target``, same
  alpha
* ``p34``:         u'' = 2*u^3 + z*u - alpha, ``pii-classical-derived``
  (u'' = 2*u^3 + z*u + alpha) with alpha negated: the convention under
  which the map p = u^2 + u' + z/2 closes onto the second-order p-equation
* ``dpii3``:       u''' = 2*(u'*u^2 + u*u'*u + u^2*u') - u/3 - z*u'/3, the
  z-derivative of the first integral u'' - 2*u^3 + z*u/3, which has no
  alpha: ``dpii-scalar`` at n = 1.  For n >= 2 it is not the catalog's
  ``dmpii``, which it matches only when u commutes with its derivatives.

Matrix powers are ordered products; the scalar coefficient z multiplies
entrywise, which is the scalar image of the anticommutator (1/2)*[z, u]_+.

At n = 1, the scalar flows, the right-hand side runs on Python ``complex``
numbers instead of 1 x 1 arrays: there each numpy call costs far more
than its one flop, and the solver calls the right-hand side thousands of
times.  It rounds exactly as numpy rounds the 1 x 1 arrays, so both paths
give the same bits and the same CSV:

* the state is packed as numpy packs ``y[:m] + 1j*y[m:]``, with complex
  operands: ``complex(re, 0.0) + 1j * complex(im, 0.0)``;
* a 1 x 1 ``@`` is ``0j + a*b``, because numpy's small-matmul sum starts
  at +0, which fixes the signed zeros;
* real scalars enter as complex operands: ``(2+0j) * x`` and
  ``complex(z, 0.0) * u``;
* ``x / 3.0`` is numpy's Smith division by 3+0j, a product with 1/3, not
  Python's ``/``, which rounds differently.

Every operation is complex by complex: Python 3.14 changed mixed
float/complex arithmetic, which moves signed zeros.

The integrator is DOP853 from ``_dop853``, a numpy-only port.
"""

from __future__ import annotations

import cmath
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._dop853 import MAX_NFEV_REACHED, solve_ivp
from .ncexpr import LaxlabError

POLE_THRESHOLD = 1e8
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_GRID = 161
# laxlab's own floor on rtol, 100 machine epsilons: below it the rounding
# error of a step, not its truncation error, would set the step size
RTOL_FLOOR = 100 * np.finfo(float).eps

RHS_IDS = ("pii", "p34", "matrix-pii", "dpii3")

# p34_map_check fails unless the winning pairing's residual is below this.
_P34_MAP_PASS_TOL = 1e-6


class NumericError(LaxlabError):
    """Invalid numeric problem or failed numeric check."""


class PoleEncountered(NumericError):
    """The trajectory left the working domain: |u| blew past the pole
    threshold, the integrator's step size collapsed or it reached its cap
    on evaluations."""


def _as_matrix(value, n: int, name: str) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise NumericError(f"{name} is not a complex matrix: {exc}") from None
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name} has non-finite entries")
    if a.ndim == 0:
        try:
            eye = np.eye(n, dtype=complex)
        except ValueError:  # numpy's size overflowed: no allocation tried
            raise MemoryError(
                f"{name}: the {n} x {n} complex matrix is too large to allocate"
            ) from None
        with np.errstate(all="ignore"):  # overflow is the pole check's job
            a = a * eye
    if a.shape != (n, n):
        raise NumericError(
            f"{name} has shape {a.shape}, expected ({n}, {n})"
        )
    return a


@dataclass
class ODEProblem:
    """One initial-value problem.  Scalars passed for u0/du0/ddu0 are
    promoted to multiples of the identity.  ``grid`` holds the
    ``grid_points`` output points from z0 to z1, which must be strictly
    monotone, with a spacing h whose power h**depth, the divisor of the
    finite-difference audit, is a normal float.  Raises ``MemoryError``
    when an array of the problem's size cannot be allocated."""

    rhs: str
    alpha: complex = 0.0
    n: int = 1
    z0: float = 1.0
    z1: float = 5.0
    u0: object = 0.0
    du0: object = 0.0
    ddu0: object = None
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    grid_points: int = DEFAULT_GRID
    grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rhs not in RHS_IDS:
            raise NumericError(
                f"unknown rhs {self.rhs!r}; expected one of {RHS_IDS}"
            )
        if not isinstance(self.n, int) or self.n < 1:
            raise NumericError("n must be an integer >= 1")
        if self.grid_points < 9:
            raise NumericError("grid_points must be at least 9")
        for name in ("z0", "z1", "alpha"):
            if not cmath.isfinite(complex(getattr(self, name))):
                raise NumericError(f"{name} must be finite")
        if float(self.z0) == float(self.z1):
            raise NumericError("empty integration span")
        for name in ("rtol", "atol"):
            if not 0 < float(getattr(self, name)) < math.inf:
                raise NumericError(f"{name} must be a positive finite number")
        if float(self.rtol) < RTOL_FLOOR:
            raise NumericError(f"rtol must be at least {RTOL_FLOOR:.3g}")
        self.alpha = complex(self.alpha)
        if self.rhs == "dpii3" and self.alpha:
            raise NumericError("dpii3 takes no alpha")
        self.u0 = _as_matrix(self.u0, self.n, "u0")
        self.du0 = _as_matrix(self.du0, self.n, "du0")
        if self.rhs == "dpii3":
            if self.ddu0 is None:
                raise NumericError("dpii3 needs an initial u''")
            self.ddu0 = _as_matrix(self.ddu0, self.n, "ddu0")
        elif self.ddu0 is not None:
            raise NumericError(f"{self.rhs} takes no initial u''")
        try:
            with np.errstate(all="ignore"):
                self.grid = np.linspace(float(self.z0), float(self.z1),
                                        self.grid_points)
                steps = np.diff(self.grid)
        except ValueError:  # numpy's size overflowed: no allocation tried
            raise MemoryError(
                f"a grid of {self.grid_points} points is too large to "
                "allocate"
            ) from None
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise NumericError(
                f"{self.grid_points} grid points from z0 = {self.z0!r} to "
                f"z1 = {self.z1!r} are not strictly monotone: the span is "
                "too short or too wide"
            )
        h = abs(float(self.grid[1] - self.grid[0]))
        # h < 1 first: a float power that overflows raises in Python
        if h < 1 and h ** self.depth < sys.float_info.min:
            raise NumericError(
                f"grid spacing {h!r} is too small for the finite-difference "
                f"audit: h**{self.depth} is below the smallest normal float"
            )

    @property
    def depth(self) -> int:
        return 3 if self.rhs == "dpii3" else 2

    @property
    def alpha_eye(self) -> np.ndarray:
        return self.alpha * np.eye(self.n, dtype=complex)


def _second_rhs(rhs: str, z, u: np.ndarray,
                alpha_eye: np.ndarray) -> np.ndarray:
    """u'' of the second-order flows.  Like ``_third_rhs`` it takes one
    matrix or a stack of them, with z broadcast against the stack."""
    cube = u @ u @ u
    if rhs == "p34":
        return 2.0 * cube + z * u - alpha_eye
    return 2.0 * cube - z * u + alpha_eye


def _third_rhs(z, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    spread = du @ u @ u + u @ du @ u + u @ u @ du
    return 2.0 * spread - u / 3.0 - z * du / 3.0


def _flow(problem: ODEProblem):
    """The right-hand side ``f(z, y)`` of the real first-order system: y
    holds the real parts of the blocks (u, u', ...) and then their
    imaginary parts, and ``f`` returns the derivative in the same layout.

    At n = 1 the closure runs on Python ``complex`` numbers, because a
    numpy call on a 1 x 1 array costs far more than its one flop.  It
    keeps numpy's rounding, so both paths return the same bits: complex
    packing, ``0j + a*b`` for ``@``, complex operands for real scalars and
    Smith's division by 3+0j (see the module docstring)."""
    if problem.n == 1:
        return _scalar_flow(problem)
    return _matrix_flow(problem)


def _matrix_flow(problem: ODEProblem):
    n, depth = problem.n, problem.depth
    nn = n * n
    m = depth * nn
    rhs, alpha_eye = problem.rhs, problem.alpha_eye

    def f(z, y):
        c = y[:m] + 1j * y[m:]
        blocks = c.reshape(depth, n, n)
        if depth == 2:
            top = _second_rhs(rhs, z, blocks[0], alpha_eye)
        else:
            top = _third_rhs(z, blocks[0], blocks[1])
        # c becomes the derivative (u', ..., top) in place
        c[:-nn] = c[nn:]
        c[-nn:] = top.reshape(nn)
        out = np.empty(2 * m)
        out[:m] = c.real
        out[m:] = c.imag
        return out

    return f


_ZERO = complex(0.0, 0.0)
_I = complex(0.0, 1.0)
_TWO = complex(2.0, 0.0)
_THIRD = 1.0 / 3.0


def _div3(x: complex) -> complex:
    """``x / 3`` as numpy divides by 3+0j: Smith's form, a product with
    1/3.  Python's ``/`` rounds differently."""
    return complex((x.real + x.imag * 0.0) * _THIRD,
                   (x.imag - x.real * 0.0) * _THIRD)


def _scalar_flow(problem: ODEProblem):
    """``_matrix_flow`` at n = 1 on Python complex numbers, bit for bit;
    ``_ZERO + a * b`` is a 1 x 1 ``@``."""
    if problem.depth == 3:
        def f(z, y):
            ur, dr, ddr, ui, di, ddi = y.tolist()
            u = complex(ur, 0.0) + _I * complex(ui, 0.0)
            du = complex(dr, 0.0) + _I * complex(di, 0.0)
            ddu = complex(ddr, 0.0) + _I * complex(ddi, 0.0)
            spread = ((_ZERO + (_ZERO + du * u) * u)
                      + (_ZERO + (_ZERO + u * du) * u)
                      + (_ZERO + (_ZERO + u * u) * du))
            top = (_TWO * spread - _div3(u)
                   - _div3(complex(float(z), 0.0) * du))
            return np.array((du.real, ddu.real, top.real,
                             du.imag, ddu.imag, top.imag))

        return f

    p34 = problem.rhs == "p34"
    alpha = complex(problem.alpha_eye[0, 0])

    def f(z, y):
        ur, dr, ui, di = y.tolist()
        u = complex(ur, 0.0) + _I * complex(ui, 0.0)
        du = complex(dr, 0.0) + _I * complex(di, 0.0)
        cube = _ZERO + (_ZERO + u * u) * u
        zu = complex(float(z), 0.0) * u
        if p34:
            top = _TWO * cube + zu - alpha
        else:
            top = _TWO * cube - zu + alpha
        return np.array((du.real, top.real, du.imag, top.imag))

    return f


def _pole_event(problem: ODEProblem):
    m = problem.depth * problem.n * problem.n
    m0 = problem.n * problem.n

    def ev(z, y):
        umax = np.max(np.hypot(y[:m0], y[m : m + m0]))
        return POLE_THRESHOLD - umax

    return ev


def _pack(problem: ODEProblem) -> np.ndarray:
    blocks = [problem.u0, problem.du0]
    if problem.depth == 3:
        blocks.append(problem.ddu0)
    flat = np.stack(blocks).reshape(-1)
    return np.concatenate([flat.real, flat.imag])


def _solve(problem: ODEProblem) -> np.ndarray:
    grid = problem.grid
    z0, y0, event = float(problem.z0), _pack(problem), _pole_event(problem)
    if event(z0, y0) <= 0:
        raise PoleEncountered(
            f"|u| exceeded {POLE_THRESHOLD:g} near z = {z0:.6g}"
        )
    sol = solve_ivp(
        _flow(problem),
        (z0, float(problem.z1)),
        y0,
        t_eval=grid,
        rtol=problem.rtol,
        atol=problem.atol,
        event=event,
    )
    if sol.status == 1:
        where = sol.t_events[0][0]
        raise PoleEncountered(
            f"|u| exceeded {POLE_THRESHOLD:g} near z = {where:.6g}"
        )
    if sol.message == MAX_NFEV_REACHED:
        raise PoleEncountered(
            f"integration stopped after {sol.nfev} evaluations near "
            f"z = {sol.t_last:.6g}"
        )
    if sol.status != 0 or sol.y.shape[1] != len(grid):
        raise PoleEncountered(f"integration stalled: {sol.message}")
    m = problem.depth * problem.n * problem.n
    c = sol.y[:m] + 1j * sol.y[m:]
    # (m, G) -> (G, depth, n, n)
    return c.T.reshape(len(grid), problem.depth, problem.n, problem.n)


def _fd_weights(offsets, order: int) -> np.ndarray:
    """Stencil weights for the given derivative order on integer offsets
    (unit spacing), from the Taylor-expansion Vandermonde system."""
    pts = np.asarray(offsets, dtype=float)
    a = np.vander(pts, increasing=True).T
    b = np.zeros(len(pts))
    b[order] = math.factorial(order)
    return np.linalg.solve(a, b)


_W7_D1 = _fd_weights(range(-3, 4), 1)
_W7_D2 = _fd_weights(range(-3, 4), 2)
_W9_D1 = _fd_weights(range(-4, 5), 1)
_W9_D3 = _fd_weights(range(-4, 5), 3)


def _stencil(samples: np.ndarray, weights: np.ndarray, h: float,
             order: int) -> np.ndarray:
    """The stencil at every grid point it fits: row j belongs to sample
    j + (len(weights) - 1) // 2.

    All windows go through one matrix product, each laid out as ``np.dot``
    lays out a single window: a column of scalars keeps its stride, a block
    of matrices stays as it is when contiguous and is copied to C order
    otherwise.  Every window then meets the same BLAS kernel as the stencil
    applied point by point, so each row is bitwise equal to it.  Other
    layouts, or ``einsum``, move the last digits, and the solver returns
    the samples in either memory order."""
    g, span = len(samples), len(weights)
    flat = samples.reshape(g, -1)
    first = flat[:span]
    if flat.shape[1] > 1 and not (first.flags.c_contiguous
                                  or first.flags.f_contiguous):
        flat = np.ascontiguousarray(flat)
    win = sliding_window_view(flat, span, axis=0).transpose(0, 2, 1)
    out = weights.astype(complex) @ win
    return out.reshape(g - span + 1, *samples.shape[1:]) / h**order


def _fd_residual(problem: ODEProblem, grid: np.ndarray,
                 states: np.ndarray) -> np.ndarray:
    g = len(grid)
    h = grid[1] - grid[0]
    res = np.full(g, np.nan)
    u = states[:, 0]
    if problem.depth == 2:
        a, b = 3, g - 3
        d = _stencil(u, _W7_D2, h, 2)
        want = _second_rhs(problem.rhs, grid[a:b, None, None], u[a:b],
                           problem.alpha_eye)
    else:
        a, b = 4, g - 4
        d = _stencil(u, _W9_D3, h, 3)
        want = _third_rhs(grid[a:b, None, None], u[a:b],
                          _stencil(u, _W9_D1, h, 1))
    res[a:b] = np.max(np.abs(d - want), axis=(1, 2))
    return res


@dataclass
class Trajectory:
    """Sampled solution plus its independent audit columns."""

    problem: ODEProblem
    grid: np.ndarray
    states: np.ndarray       # (G, depth, n, n) complex
    fd_residual: np.ndarray  # (G,) float; NaN where the stencil hangs over

    @property
    def u(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def du(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def ddu(self) -> np.ndarray:
        if self.states.shape[1] < 3:
            raise NumericError("second-order trajectory stores no u''")
        return self.states[:, 2]

    def max_fd_residual(self) -> float:
        return float(np.nanmax(self.fd_residual))

    def to_csv(self) -> str:
        names = ["u", "du", "ddu"][: self.states.shape[1]]
        n = self.problem.n
        out = io.StringIO()
        header = ["z"]
        for name in names:
            for r in range(n):
                for c in range(n):
                    header += [f"{name}_re_{r}_{c}", f"{name}_im_{r}_{c}"]
        header.append("fd_residual")
        out.write(",".join(header) + "\n")
        # Re and Im of every entry, interleaved, one row per grid point
        states = self.states.reshape(len(self.grid), -1)
        values = np.stack((states.real, states.imag), axis=-1)
        values = values.reshape(len(self.grid), -1).tolist()
        row = "%.12g," + ",".join(["%.16e"] * (2 * states.shape[1])) + ",%s\n"
        for z, vals, r in zip(self.grid.tolist(), values,
                              self.fd_residual.tolist()):
            out.write(row % (z, *vals, "" if math.isnan(r) else f"{r:.6e}"))
        return out.getvalue()


def integrate(problem: ODEProblem) -> Trajectory:
    """Solve ``problem`` on its grid and audit the samples.  Overflow on
    the way (data near a pole) ends in :class:`PoleEncountered` or in an
    inf or NaN residual, never in a numpy warning."""
    grid = problem.grid
    with np.errstate(all="ignore"):
        states = _solve(problem)
        return Trajectory(problem, grid, states,
                          _fd_residual(problem, grid, states))


def p34_map_check(alpha, ic, rhs="p34") -> dict:
    """Integrate the scalar flow ``rhs`` from ``ic`` = (u0, u0') over
    z in [1, 2.5] (121 points, rtol 1e-12, atol 1e-14), push the
    trajectory through p = u^2 + u' + z/2, and test which second-order
    p-equation the image satisfies: the (alpha - 1/2)^2 pairing (q side)
    or the (alpha + 1/2)^2 pairing (r side).  Exactly one must hold
    unless the two coefficients coincide."""
    u0, du0 = ic
    problem = ODEProblem(rhs, alpha=alpha, z0=1.0, z1=2.5, u0=u0, du0=du0,
                         rtol=1e-12, atol=1e-14, grid_points=121)
    tr = integrate(problem)
    z = tr.grid
    u = tr.u[:, 0, 0]
    du = tr.du[:, 0, 0]
    p = u * u + du + z / 2.0
    if np.min(np.abs(p)) < 1e-6:
        raise NumericError(
            "p(z) passes too close to zero for the quotient form"
        )
    h = z[1] - z[0]
    d1 = _stencil(p, _W7_D1, h, 1)
    d2 = _stencil(p, _W7_D2, h, 2)
    c2 = {
        "q": (complex(alpha) - 0.5) ** 2,
        "r": (complex(alpha) + 0.5) ** 2,
    }
    residual = {}
    # Per point on numpy scalars: numpy's array complex division and
    # array abs differ from the scalar ones in the last bits.
    for tag, coeff in c2.items():
        worst = 0.0
        for j in range(len(d1)):
            pk, zk = p[j + 3], z[j + 3]
            r = (d2[j] - d1[j] * d1[j] / (2.0 * pk) - 2.0 * pk * pk
                 + zk * pk + coeff / (2.0 * pk))
            worst = max(worst, abs(r))
        residual[tag] = worst
    tie = abs(c2["q"] - c2["r"]) < 1e-12
    winner = "q" if residual["q"] <= residual["r"] else "r"
    result = {
        "winner": winner,
        "winner_c2": c2[winner],
        "residual_q": residual["q"],
        "residual_r": residual["r"],
        "coincident_pairings": tie,
    }
    if residual[winner] > _P34_MAP_PASS_TOL:
        raise NumericError(
            "neither pairing closes: q residual "
            f"{residual['q']:.3e}, r residual {residual['r']:.3e} "
            "(upstream convention error)"
        )
    return result


def dpii_first_integral_check(ic) -> float:
    """Integrate the scalar third-order flow from ``ic`` = (u0, u0', u0'')
    over z in [1, 4] at the default tolerances and grid, and return the
    largest drift of its first integral u'' - 2*u^3 + z*u/3 along the
    trajectory."""
    u0, du0, ddu0 = ic
    problem = ODEProblem("dpii3", z0=1.0, z1=4.0, u0=u0, du0=du0,
                         ddu0=ddu0)
    tr = integrate(problem)
    z = tr.grid
    u = tr.u
    vals = tr.ddu - 2.0 * (u @ u @ u) + z[:, None, None] * u / 3.0
    return float(np.max(np.abs(vals - vals[0])))
