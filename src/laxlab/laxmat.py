"""2x2 matrices over the free-algebra kernel.

Provides the Pauli/ladder basis bookkeeping, the zero-curvature residual

    R = d_dz(Q) - d_dlambda(P) - [P, Q]

for a linear system Psi_z = P Psi, Psi_lambda = Q Psi, the extraction of
scalar equations from a residual (per entry, per lam power, canonically
scaled, merged with provenance), and gauge transformation with the
connection term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from .ncexpr import LaxlabError, NCExpr, QQi, RuleSet, normalize

__all__ = [
    "Mat2",
    "GaugeError",
    "Equation",
    "ProvenanceItem",
    "mat_commutator",
    "zero_curvature_residual",
    "extract_equations",
    "gauge_transform",
]

_HALF = QQi(Fraction(1, 2))
_HALF_I = QQi(0, Fraction(1, 2))
_I = QQi(0, 1)
_BASIS_NAMES = ("I", "s1", "s2", "s3", "Ip", "Im")


class GaugeError(LaxlabError):
    """The supplied gauge pair is not a two-sided inverse pair."""


class Mat2:
    """A 2x2 matrix of expressions, stored row-major."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[NCExpr]):
        entries = tuple(entries)
        if len(entries) != 4:
            raise ValueError("a Mat2 needs exactly 4 entries (row-major)")
        self.entries = entries

    # -- constructors -------------------------------------------------------------
    @classmethod
    def identity(cls) -> "Mat2":
        one = NCExpr.one()
        z = NCExpr.zero()
        return cls((one, z, z, one))

    @classmethod
    def from_pauli(cls, components: Mapping[str, NCExpr]) -> "Mat2":
        """Build sum(c_name * basis_name) from a component map.

        The basis matrices are I, s1 = [[0,1],[1,0]], s2 = [[0,-i],[i,0]],
        s3 = [[1,0],[0,-1]] and the ladders Ip = [[0,1],[0,0]],
        Im = [[0,0],[-1,0]]; so s1 = Ip - Im and s2 = -i*(Ip + Im).
        Missing components default to zero.
        """
        unknown = set(components) - set(_BASIS_NAMES)
        if unknown:
            raise LaxlabError(
                f"unknown basis matrix {min(unknown)!r}; choose from "
                f"{sorted(_BASIS_NAMES)}"
            )
        zero = NCExpr.zero()
        c_i, c1, c2, c3, c_p, c_m = (
            components.get(name, zero) for name in _BASIS_NAMES
        )
        i_c2 = c2.scalar_mul(_I)
        return cls((c_i + c3, c1 - i_c2 + c_p, c1 + i_c2 - c_m, c_i - c3))

    # -- plumbing -------------------------------------------------------------------
    def map(self, fn: Callable[[NCExpr], NCExpr]) -> "Mat2":
        return Mat2(tuple(fn(e) for e in self.entries))

    # -- algebra -------------------------------------------------------------------
    def __add__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        a, b = self.entries, other.entries
        return Mat2(tuple(a[k] + b[k] for k in range(4)))

    def __sub__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        a, b = self.entries, other.entries
        return Mat2(tuple(a[k] - b[k] for k in range(4)))

    def __neg__(self) -> "Mat2":
        return self.map(lambda e: -e)

    def __mul__(self, other: "Mat2") -> "Mat2":
        """Matrix product; entries multiply in the free algebra."""
        if not isinstance(other, Mat2):
            return NotImplemented
        a11, a12, a21, a22 = self.entries
        b11, b12, b21, b22 = other.entries
        return Mat2(
            (
                a11 * b11 + a12 * b21,
                a11 * b12 + a12 * b22,
                a21 * b11 + a22 * b21,
                a21 * b12 + a22 * b22,
            )
        )

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries == other.entries

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    # -- calculus / limits -----------------------------------------------------------
    def d_dz(self) -> "Mat2":
        return self.map(lambda e: e.d_dz())

    def d_dlambda(self) -> "Mat2":
        return self.map(lambda e: e.d_dlambda())

    def normalize(self, rules: RuleSet | None) -> "Mat2":
        return self.map(lambda e: normalize(e, rules))

    def substitute(self, mapping: Mapping[str, NCExpr]) -> "Mat2":
        return self.map(lambda e: e.substitute(mapping))

    def classical_limit(self) -> "Mat2":
        return self.map(lambda e: e.classical_limit())

    def scalarize(self) -> "Mat2":
        return self.map(lambda e: e.scalarize())

    # -- Pauli bookkeeping -------------------------------------------------------------
    def pauli_decompose(self) -> dict[str, NCExpr]:
        """Components in the I, s1, s2, s3 basis.

        c_I = (m11+m22)/2, c_3 = (m11-m22)/2, c_1 = (m12+m21)/2,
        c_2 = (i/2)*(m12-m21); from_pauli(pauli_decompose(M)) == M.
        """
        m11, m12, m21, m22 = self.entries
        return {
            "I": (m11 + m22).scalar_mul(_HALF),
            "s1": (m12 + m21).scalar_mul(_HALF),
            "s2": (m12 - m21).scalar_mul(_HALF_I),
            "s3": (m11 - m22).scalar_mul(_HALF),
        }

    def __repr__(self):
        e = self.entries
        return f"Mat2([[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]])"


def mat_commutator(a: Mat2, b: Mat2) -> Mat2:
    return a * b - b * a


def zero_curvature_residual(p: Mat2, q: Mat2,
                            rules: RuleSet | None = None) -> Mat2:
    """The compatibility residual R = Q_z - P_lambda - [P,Q] of
    Psi_z = P Psi, Psi_lambda = Q Psi, normalized under ``rules``.  The
    pair is compatible exactly when R vanishes (possibly only after
    rewriting with a rule set).
    """
    r = q.d_dz() - p.d_dlambda() - mat_commutator(p, q)
    return r.normalize(rules)


# ---------------------------------------------------------------------------
# Equation extraction
# ---------------------------------------------------------------------------


class ProvenanceItem(NamedTuple):
    """Where one equation came from: matrix entry, lam power, and the
    Gaussian-rational scale by which the canonical form was divided
    (entry coefficient == scale * lam**lam_power * lhs)."""

    entry: str
    lam_power: int
    scale: QQi

    def describe(self) -> str:
        return (f"entry {self.entry}, lam^{self.lam_power}, "
                f"scale {self.scale}")


class Equation(NamedTuple):
    """An equation lhs == 0 with provenance through a pipeline step."""

    lhs: NCExpr
    provenance: tuple[ProvenanceItem, ...] = ()
    label: str = ""

    def describe_provenance(self) -> str:
        if not self.provenance:
            return self.label or "(no provenance)"
        inner = "; ".join(item.describe() for item in self.provenance)
        return f"{self.label}: {inner}" if self.label else inner


_ENTRY_NAMES = ("11", "12", "21", "22")


def extract_equations(residual: Mat2, label: str = "") -> list[Equation]:
    """Split a residual into canonical scalar equations.

    Every matrix entry is split by lam power; each component is divided by
    the Gaussian-rational of its minimal word's minimal monomial, and
    components sharing a canonical form (including negated or otherwise
    Gaussian-rational-scaled duplicates) merge into one equation whose
    provenance lists every contributing (entry, lam power, scale).
    Zero entries contribute nothing.  The result order is deterministic:
    row-major entries, ascending lam power, first appearance wins.
    """
    found: list[Equation] = []
    index: dict[str, int] = {}
    for name, entry in zip(_ENTRY_NAMES, residual.entries):
        if entry.is_zero:
            continue
        parts = entry.split_lambda()
        for power in sorted(parts):
            component = parts[power]
            canon, scale = component.canonical_with_scale()
            item = ProvenanceItem(name, power, scale)
            key = canon.to_string()
            if key in index:
                old = found[index[key]]
                found[index[key]] = Equation(
                    old.lhs, old.provenance + (item,), old.label
                )
            else:
                index[key] = len(found)
                found.append(Equation(canon, (item,), label))
    return found


# ---------------------------------------------------------------------------
# Gauge transformation
# ---------------------------------------------------------------------------


def gauge_transform(m: Mat2, g: Mat2, g_inv: Mat2, kind: str) -> Mat2:
    """Transform one member of a linear-system pair by the gauge G.

    kind = "z-part" transforms the coefficient of d/dz and returns
    G M G^-1 + (d_dz G) G^-1; kind = "lambda-part" uses d_dlambda for the
    connection term.  The inverse is not computed symbolically: the caller
    supplies it, and G G^-1 == G^-1 G == I is checked literally, in the
    free algebra, before anything else happens.
    """
    if kind not in ("z-part", "lambda-part"):
        raise LaxlabError(f"unknown gauge kind {kind!r}; use z-part or lambda-part")
    ident = Mat2.identity()
    if g * g_inv != ident or g_inv * g != ident:
        raise GaugeError("g_inv is not a two-sided inverse of g")
    dg = g.d_dz() if kind == "z-part" else g.d_dlambda()
    return g * m * g_inv + dg * g_inv
