"""Catalog of the constructions under audit.

Every printed display in scope is recorded here exactly once, as a Lax
pair, a gauge specification, a single target equation, or a target
system.  Entries whose names end in ``-asprinted`` transcribe a printed
display verbatim (including its defects); ``-derived`` entries record the
form the exact algebra produces.

One helper per kind (``_pair``, ``_gauge``, ``_target``, ``_system``)
registers each entry with its citation, the texts it parses and its
``params``.  Entries take no parameters: ``alpha`` stays a free central
symbol, and ``params`` only names the printed parameters that ``alpha``
stands for.  ``_Entry.make`` is the one place where an entry is built: it
parses the texts anew on every call, so every ``build`` returns a fresh
value.  Built values carry no name or citation; ``describe`` serves those.

All target equations and systems are stored as left-hand sides: the
recorded expression equals printed-lhs minus printed-rhs, so the
equation asserts ``lhs == 0``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .laxmat import Mat2
from .ncexpr import LaxlabError, NCExpr
from .ncexpr import parse as _p


class CatalogError(LaxlabError):
    """Unknown key."""


class LaxPairSpec(NamedTuple):
    """A linear-problem pair: ``p`` drives d/dz, ``q`` drives the spectral
    derivative.  ``rules`` names the built-in rule sets relevant to the
    pair (relations its setting assumes, inverses its entries mention)."""

    p: Mat2
    q: Mat2
    rules: tuple[str, ...] = ()


class GaugeSpec(NamedTuple):
    """A constant gauge matrix with its exact two-sided inverse."""

    g: Mat2
    g_inv: Mat2


class TargetEquation(NamedTuple):
    lhs: NCExpr


class TargetSystem(NamedTuple):
    equations: tuple[NCExpr, ...]


class _Entry(NamedTuple):
    kind: str
    citation: str
    #: the printed parameters that the symbol alpha stands for
    params: tuple[str, ...]
    #: builds the value, parsing its texts anew
    make: Callable


_SPECS: dict[str, _Entry] = {}


def _target(key: str, citation: str, text: str, params: tuple = ()) -> None:
    _SPECS[key] = _Entry(
        "target", citation, params, lambda: TargetEquation(_p(text))
    )


def _system(key: str, citation: str, texts: tuple[str, ...]) -> None:
    _SPECS[key] = _Entry(
        "system", citation, (),
        lambda: TargetSystem(tuple(_p(t) for t in texts)),
    )


def _mat(texts) -> Mat2:
    """A matrix from Pauli components (a dict) or row-major entry texts."""
    if isinstance(texts, dict):
        return Mat2.from_pauli({k: _p(v) for k, v in texts.items()})
    return Mat2([_p(t) for t in texts])


def _pair(key: str, citation: str, p, q, rules: tuple = ()) -> None:
    _SPECS[key] = _Entry(
        "pair", citation, ("alpha",),
        lambda: LaxPairSpec(_mat(p), _mat(q), rules),
    )


def _gauge(key: str, citation: str, g: tuple, g_inv: tuple) -> None:
    _SPECS[key] = _Entry(
        "gauge", citation, (), lambda: GaugeSpec(_mat(g), _mat(g_inv)),
    )


# ---------------------------------------------------------------------------
# classical family
# ---------------------------------------------------------------------------
_target(
    "pii-classical",
    "Scalar second-order target in the -z*u sign convention, printed at the "
    "head of the derivation under audit.",
    "u'' - 2*u^3 + z*u - alpha",
)

_target(
    "pii-classical-derived",
    "The +z*u convention that the classical pair's compatibility produces "
    "mechanically; related to pii-classical by z -> -z with alpha fixed.",
    "u'' - 2*u^3 - z*u - alpha",
)

_pair(
    "fn-pair",
    "Classical pair.  The printed s2 slot of the spectral member names an "
    "auxiliary symbol v; the classical pipelines bind v = u'.",
    {"s3": "-i*lam", "s1": "u"},
    {"s3": "-i*(4*lam^2 + z + 2*u^2)", "s1": "4*lam*u - alpha/lam", "s2": "-2*v"},
)

_pair(
    "fn-gauge-pair",
    "Gauge-equivalent classical pair in the squared spectral variable: here "
    "lam records eta = lam^2 of the parent pair, so no spectral-derivative "
    "machinery applies to it directly.  The printed lower-left symbol "
    "collides with the Pauli letters and is recorded as r, the name the "
    "surrounding text itself uses.",
    ("u", "i*lam", "i", "-u"),
    (
        "2*u + (1/2)*(alpha + 1/2)*lam^-1",
        "2*i*lam + i*q",
        "2*i + i*r*lam^-1",
        "-2*u - (1/2)*(alpha + 1/2)*lam^-1",
    ),
)

_system(
    "pii-symmetric",
    "Classical symmetric three-equation form in q, r, u with parameter "
    "shifts alpha -/+ 1/2.",
    (
        "q' - 2*q*u + alpha - 1/2",
        "r' + 2*r*u - alpha - 1/2",
        "u' - (1/2)*q + (1/2)*r",
    ),
)

_target(
    "classical-p34-r",
    "As-printed second-order equation for r: full coefficient on the "
    "first-derivative-squared term and pairing (alpha + 1/2)^2.",
    "r'' - r'^2*r^-1 - 2*r^2 + z*r + (1/2)*(alpha + 1/2)*(alpha + 1/2)*r^-1",
)

_target(
    "classical-p34-q",
    "As-printed second-order equation for q: full coefficient on the "
    "first-derivative-squared term and pairing delta^2 = (alpha - 1/2)^2.",
    "q'' - q'^2*q^-1 - 2*q^2 + z*q + (1/2)*delta^2*q^-1",
)

_target(
    "classical-p34-r-derived",
    "Eliminating u from the symmetric form gives coefficient 1/2 on "
    "r'^2*r^-1; the printed full coefficient does not close under the "
    "symmetric form.",
    "r'' - (1/2)*r'^2*r^-1 - 2*r^2 + z*r "
    "+ (1/2)*(alpha + 1/2)*(alpha + 1/2)*r^-1",
)

_target(
    "classical-p34-q-derived",
    "Eliminating u from the symmetric form gives coefficient 1/2 on "
    "q'^2*q^-1 with pairing delta^2.",
    "q'' - (1/2)*q'^2*q^-1 - 2*q^2 + z*q + (1/2)*delta^2*q^-1",
)

_target(
    "dmpii",
    "Third-order matrix equation with commutator structure 3*(u''*u - u*u'') "
    "and 1/3 scalings, from the scaling reduction of a matrix third-order "
    "flow.",
    "u''' - 3*u''*u + 3*u*u'' - 6*u*u'*u + 1/3*u + 1/3*z*u'",
)

_system(
    "matrix-pii-symmetric",
    "Matrix symmetric form with symmetrized products u*q + q*u and "
    "r*u + u*r.",
    (
        "q' - u*q - q*u + alpha - 1/2",
        "r' + r*u + u*r - alpha - 1/2",
        "u' - (1/2)*q + (1/2)*r",
    ),
)


_target(
    "matrix-pii-target",
    "Second-order matrix target u'' = 2*u^3 - z*u + alpha, where alpha "
    "stands for the printed parameter difference alpha1 - alpha0.",
    "u'' - 2*u^3 + z*u - alpha",
    params=("alpha0", "alpha1"),
)

_target(
    "qp34-hbar2",
    "Second-order equation for q with the quadratic Planck-constant pairing "
    "(alpha1^2 - hbar^2)/2 and doubled quadratic and linear terms; the "
    "symbol alpha records the printed alpha1.",
    "q'' - (1/2)*q'*q^-1*q' + 4*q^2 - 2*z*q "
    "+ (1/2)*(alpha^2 - hbar^2)*q^-1",
    params=("alpha1",),
)

_system(
    "weyl-relations",
    "Commutation relations [r,q] = 2*hbar*u and [u,q] = [u,r] = hbar that "
    "close the matrix symmetric form.",
    ("[r,q]_- - 2*hbar*u", "[u,q]_- - hbar", "[u,r]_- - hbar"),
)

_target(
    "ncpii-vrvr",
    "Noncommutative second-order equation with anticommutator -2*[z,u]_+ "
    "and constant 4*(beta + 1/2).  Caution: in its own source beta is a "
    "free parameter, while this grammar expands beta to the fixed macro "
    "i*hbar/4; the entry records the printed shape under that reading.",
    "u'' - 2*u^3 + 2*[z,u]_+ - 4*beta - 2",
)

# ---------------------------------------------------------------------------
# headline summary and comparison block
# ---------------------------------------------------------------------------
_system(
    "results-summary",
    "Four headline results: the anticommutator-form quantum equation, the "
    "derivative commutation relation, the third-order nu equation (printed "
    "in a shifted variable x, recorded with x = z), and the quantum P34 "
    "variant whose linear term carries z - hbar/2.",
    (
        "u'' - 2*u^3 + (1/2)*[z,u]_+ - alpha",
        "[z,u'] + (i/2)*hbar*u",
        "nu''' - 2*nu^2*nu' - 2*nu'*nu^2 - 2*nu*nu'*nu + nu + z*nu' "
        "- 4*[nu,nu'']_-",
        "p'' + (1/2)*p'*p^-1*p' - 2*p^2 + (1/2)*delta^2*p^-1 "
        "+ (z - (1/2)*hbar)*p",
    ),
)

_system(
    "comparison-target",
    "Two-line comparison block: the -z*u classical convention and the "
    "quantum P34 variant whose linear term carries z - hbar^2.",
    (
        "u'' - 2*u^3 + z*u - alpha",
        "p'' + (1/2)*p'*p^-1*p' - 2*p^2 + (1/2)*delta^2*p^-1 + (z - hbar^2)*p",
    ),
)

# ---------------------------------------------------------------------------
# quantum pair and its cases
# ---------------------------------------------------------------------------
_pair(
    "qpii-pair",
    "Quantum pair with the scalar imaginary unit restored on the 2*u^2 term "
    "of the spectral member's s3 coefficient; the member's own printed "
    "z-derivative display requires this reading.",
    {"s1": "u", "s3": "-i*lam", "I": "4*v"},
    {
        "s3": "-i*(4*lam^2 + z + 2*u^2)",
        "s1": "4*lam*u - alpha/lam",
        "s2": "-(2*u' - i*hbar)",
    },
    rules=("quantum-zv",),
)

_pair(
    "qpii-pair-asprinted",
    "Quantum pair with the spectral member's s3 coefficient exactly as "
    "printed, -(4*i*lam^2 + i*z + 2*u^2); the member's own printed "
    "z-derivative display contradicts this form.",
    {"s1": "u", "s3": "-i*lam", "I": "4*v"},
    {
        "s3": "-(4*i*lam^2 + i*z + 2*u^2)",
        "s1": "4*lam*u - alpha/lam",
        "s2": "-(2*u' - i*hbar)",
    },
    rules=("quantum-zv",),
)

_system(
    "qmpii-system-asprinted",
    "As-printed two-line outcome of the quantum pair: the second-order "
    "equation with coefficient 4 on [v,u'] and the commutation relation "
    "z*v - v*z = -(i/2)*hbar*u.",
    (
        "u'' - 2*u^3 + (1/2)*[z,u]_+ - 4*[v,u']_- - alpha",
        "z*v - v*z + (i/2)*hbar*u",
    ),
)

_target(
    "qmpii-target-asprinted",
    "First line of the printed outcome: coefficient 4 on [v,u'].",
    "u'' - 2*u^3 + (1/2)*[z,u]_+ - 4*[v,u']_- - alpha",
)

_target(
    "qmpii-target-derived",
    "The sum of the two lambda-graded off-diagonal equations as the "
    "derivation itself performs it: coefficient 1 on [v,u'].",
    "u'' - 2*u^3 + (1/2)*[z,u]_+ - [v,u']_- - alpha",
)

_target(
    "qmpii-target-residual",
    "What the compatibility residual actually yields: the anticommutator "
    "enters with +(1/2)*[z,u]_+ on the right-hand side (the sign the "
    "classical reduction confirms) and [v,u'] with coefficient 4.",
    "u'' - 2*u^3 - (1/2)*[z,u]_+ - 4*[v,u']_- - alpha",
)

_target(
    "commutation-zv",
    "Commutation relation [z,v] = -(i/2)*hbar*u.  The residual's diagonal "
    "produces it with an extra 2*[v,u^2] term unless [v,u] = 0 is imposed.",
    "[z,v]_- + (i/2)*hbar*u",
)

_system(
    "case-i-system",
    "v = u' reduction: the anticommutator-form equation together with the "
    "derivative commutation relation d/dz[z,u] = -(i/2)*hbar*u.",
    (
        "u'' - 2*u^3 + (1/2)*[z,u]_+ - alpha",
        "[z,u'] + (i/2)*hbar*u",
    ),
)

_target(
    "case-ii-display",
    "Third-order nu equation after the change of variable; printed with "
    "x = z - (i/4)*hbar and recorded here with x = z.  The internally "
    "consistent shift carries the opposite sign, x = z + (i/4)*hbar.",
    "nu''' - 2*nu^2*nu' - 2*nu'*nu^2 - 2*nu*nu'*nu + nu + z*nu' "
    "- 4*[nu,nu'']_-",
)

# ---------------------------------------------------------------------------
# gauge data and the quantum P34 chain
# ---------------------------------------------------------------------------


_gauge(
    "gauge-G",
    "Constant gauge matrix, stored without the overall 1/sqrt(2) "
    "normalization (it cancels in conjugation), together with its exact "
    "inverse.",
    ("-i", "-i", "-1", "1"),
    ("i/2", "-1/2", "i/2", "1/2"),
)

_pair(
    "gauge-pair-asprinted",
    "Conjugated pair as printed: z-member u*s3 - i*lam*s2 + 4*u*I and "
    "spectral member with -(4*i*lam^2 + hbar/4)*s2 and nilpotent slots "
    "2*p and -2*q.",
    {"s3": "u", "s2": "-i*lam", "I": "4*u"},
    {
        "s3": "4*lam*u - alpha/lam",
        "s2": "-(4*i*lam^2 + (1/4)*hbar)",
        "Ip": "2*p",
        "Im": "-2*q",
    },
    rules=("inverse-pq", "quantum-zv"),
)

_pair(
    "gauge-pair-derived",
    "Conjugated pair computed exactly: z-member u*s3 + i*lam*s2 + 4*v*I and "
    "spectral member whose nilpotent coefficients are "
    "4*lam^2 + z + 2*u^2 +/- (2*u' - i*hbar).",
    {"s3": "u", "s2": "i*lam", "I": "4*v"},
    {
        "s3": "4*lam*u - alpha/lam",
        "Ip": "4*lam^2 + z + 2*u^2 + 2*u' - i*hbar",
        "Im": "4*lam^2 + z + 2*u^2 - 2*u' + i*hbar",
    },
    rules=("quantum-zv",),
)

_system(
    "qspii-system-asprinted",
    "Printed three-equation gauge outcome in p, q, u and the auxiliary v, "
    "with (i/4)*hbar*u shifts.",
    (
        "p' - v*p + p*v - u*p - p*u + (i/4)*hbar*u + alpha - 1/2",
        "q' - q*v + v*q + u*q + q*u + (i/4)*hbar*u - alpha - 1/2",
        "u' - (1/2)*p + (1/2)*q",
    ),
)

_system(
    "qp34-defs",
    "Defining relations p = u^2 + u' + z/2 and q = u^2 - u' + z/2.",
    ("p - u^2 - u' - (1/2)*z", "q - u^2 + u' - (1/2)*z"),
)

_target(
    "qp34-affine-asprinted",
    "Printed affine relation p' = 2*u*p - (i/4)*hbar*u - alpha + 1/2; "
    "relative to the v = u' specialization of the gauge system's first "
    "line it drops [p,u'] + [u,p].",
    "p' - 2*u*p + (i/4)*hbar*u + alpha - 1/2",
)

_target(
    "qp34-affine-factored",
    "Factored printed form p' = 2*u*(p - beta/2) - delta; exactly equal to "
    "the affine relation.",
    "p' - 2*u*(p - (1/2)*beta) + delta",
)

_target(
    "qp34-affine-q",
    "q-side affine relation q' = -2*u*q - (i/4)*hbar*u + alpha + 1/2: "
    "unprinted, obtained by the same silent reordering as the p side, and "
    "needed to audit the q-side claim.",
    "q' + 2*u*q + (i/4)*hbar*u - alpha - 1/2",
)

_target(
    "qp34-log-derivative",
    "Printed inversion u = p'*p^-1 + delta*p^-1, where p stands for the "
    "shifted bold variable.  The inversion consistent with the affine "
    "relation and the printed bold definition carries an extra factor 1/2.",
    "u - p'*p^-1 - delta*p^-1",
)

_target(
    "qp34-bold-defn",
    "Printed bold definition p = u^2 + u' + z/2 - beta/2.  It is consistent "
    "with shifting the affine variable by beta/2, not with the stated shift "
    "by beta.",
    "p - u^2 - u' - (1/2)*z + (1/2)*beta",
)

_target(
    "qp34-uprime-asprinted",
    "Printed u' display of the inversion chain; relative to the exact "
    "derivative of the half log-derivative it lacks (1/2)*p''*p^-1 and "
    "flips the sign of the delta term.",
    "u' + (1/2)*p'*p^-1*p'*p^-1 - (1/2)*delta*p^-1*p'*p^-1",
)

_target(
    "qp34-usquare-asprinted",
    "Printed u^2 display of the inversion chain; exactly the square of the "
    "half log-derivative u = (1/2)*(p' + delta)*p^-1.",
    "u^2 - (1/4)*p'*p^-1*p'*p^-1 - (1/4)*delta*p'*p^-2 "
    "- (1/4)*delta*p^-1*p'*p^-1 - (1/4)*delta^2*p^-2",
)

_target(
    "qp34-uprime-derived",
    "Exact derivative of the half log-derivative u = (1/2)*(p' + delta)*p^-1.",
    "u' - (1/2)*p''*p^-1 + (1/2)*p'*p^-1*p'*p^-1 + (1/2)*delta*p^-1*p'*p^-1",
)

_target(
    "qp34-target-asprinted",
    "Printed quantum P34 target: p'' = -(1/2)*p'*p^-1*p' + 2*p^2 "
    "- (delta^2/2)*p^-1 - (z - beta)*p.",
    "p'' + (1/2)*p'*p^-1*p' - 2*p^2 + (1/2)*delta^2*p^-1 + (z - beta)*p",
)

_target(
    "qp34-target-derived",
    "Exact outcome of the half-log-derivative chain; differs from the "
    "printed target by -p'*p^-1*p' + (delta/2)*p'*p^-1 - (delta/2)*p^-1*p'.",
    "p'' - (1/2)*p'*p^-1*p' - 2*p^2 + (1/2)*delta*p'*p^-1 "
    "- (1/2)*delta*p^-1*p' + (1/2)*delta^2*p^-1 + (z - beta)*p",
)

_target(
    "qp34-target-routeb",
    "Exact outcome when the printed no-half log-derivative is taken at face "
    "value: p'' = p^2 - delta*p'*p^-1 - delta^2*p^-1 - ((z - beta)/2)*p.",
    "p'' - p^2 + delta*p'*p^-1 + delta^2*p^-1 + (1/2)*(z - beta)*p",
)

_target(
    "qp34-target-q-asprinted",
    "Printed q-side quantum P34 target with delta^2 pairing and linear term "
    "(z + beta)*q.",
    "q'' + (1/2)*q'*q^-1*q' - 2*q^2 + (1/2)*delta^2*q^-1 + (z + beta)*q",
)

_target(
    "qp34-target-q-derived",
    "Exact q-side chain outcome: the pairing is (alpha + 1/2)^2 rather than "
    "delta^2, and the linear delta-terms enter with opposite ordering "
    "signs relative to the p side.",
    "q'' - (1/2)*q'*q^-1*q' - 2*q^2 - (1/2)*(alpha + 1/2)*q'*q^-1 "
    "+ (1/2)*(alpha + 1/2)*q^-1*q' "
    "+ (1/2)*(alpha + 1/2)*(alpha + 1/2)*q^-1 + (z + beta)*q",
)

# ---------------------------------------------------------------------------
# scalar anchors for the numerical harness
# ---------------------------------------------------------------------------
_target(
    "dpii-scalar",
    "Scalar third-order equation u''' = 6*u^2*u' - u/3 - z*u'/3: the "
    "commutative image of the matrix third-order target.",
    "u''' - 6*u^2*u' + (1/3)*u + (1/3)*z*u'",
)

_target(
    "dpii-first-integral",
    "First integral u'' - 2*u^3 + (1/3)*z*u of the scalar third-order flow; "
    "its z-derivative reproduces the scalar equation exactly.",
    "u'' - 2*u^3 + (1/3)*z*u",
)

# ---------------------------------------------------------------------------
# registry surface
# ---------------------------------------------------------------------------
def keys() -> tuple[str, ...]:
    return tuple(_SPECS)


def describe(key: str) -> dict:
    entry = _SPECS.get(key)
    if entry is None:
        raise CatalogError(f"unknown catalog key {key!r}")
    return {"kind": entry.kind, "citation": entry.citation,
            "params": entry.params}


def build(key: str):
    """Build a fresh value of a catalog entry."""
    entry = _SPECS.get(key)
    if entry is None:
        raise CatalogError(f"unknown catalog key {key!r}")
    return entry.make()
