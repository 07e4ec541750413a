"""Verification pipelines over the symbolic kernel.

Each pipeline recomputes one derivation from the catalog end to end and
reports every comparison it makes.  A report line records the provenance of
a computed expression, the target it was matched against, and the normal
form of their difference.  Three statuses exist:

* ``verified``            — every comparison closed exactly.
* ``verified-with-notes`` — every comparison closed, but some only against
  the ``-derived`` form of a catalog entry, with the exact difference from
  the ``-asprinted`` form recorded; or an extracted equation has no printed
  counterpart and carries an explanatory note.
* ``discrepancy``         — the engine's own arithmetic failed to close a
  comparison it is expected to close.  Only internal inconsistency produces
  this status; documented deviations of printed forms do not.

``_Run.compare`` is the one place where a comparison's verdict is decided:
an exact match, or a documented mismatch whose difference must equal a
frozen ``expected`` value.  Every ``expected`` difference was frozen from an
independent computation before the pipeline was written; pipelines never
invent the values they check against.

Each pipeline also has a mutated twin (``negative_control=True``) that
must report a discrepancy; these guard the pipelines against vacuous
matching.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from .ncexpr import (
    QQi,
    NCExpr,
    LaxlabError,
    _z_tower,
    builtin_ruleset,
    normalize,
)
from .ncexpr import parse as _p
from .laxmat import (
    GaugeError,
    Mat2,
    extract_equations,
    gauge_transform,
    mat_commutator,
    zero_curvature_residual,
)
from . import catalog

VERIFIED = "verified"
VERIFIED_WITH_NOTES = "verified-with-notes"
DISCREPANCY = "discrepancy"

class VerifyError(LaxlabError):
    """Unknown pipeline or malformed verification request."""


def _up() -> NCExpr:
    return NCExpr.gen("u", 1)


def _eq_with(eqs, entry: str, lam_power: int):
    for eq in eqs:
        item = eq.provenance[0]
        if item.entry == entry and item.lam_power == lam_power:
            return eq
    raise KeyError(f"no extracted equation from entry {entry}, lam^{lam_power}")


def _lhs_with(eqs, entry: str, lam_power: int) -> NCExpr:
    """Like ``_eq_with(...).lhs``, but zero when no equation was extracted:
    extraction skips a residual component that the active rules rewrote
    to zero."""
    try:
        return _eq_with(eqs, entry, lam_power).lhs
    except KeyError:
        return NCExpr.zero()


def _prop31_equations(p: Mat2, q: Mat2, rules=None):
    """The compatibility residual of the pair ``(p, q)`` and the three
    equations proposition 3.1 reads off it: the diagonal, the lam-linear
    and the lam-free off-diagonal equation, each zero when the rules
    rewrote its component away."""
    residual = zero_curvature_residual(p, q, rules=rules)
    eqs = extract_equations(residual, label="prop31")
    return (residual, _lhs_with(eqs, "11", 0), _lhs_with(eqs, "12", 1),
            _lhs_with(eqs, "12", 0))


def _mat_str(m: Mat2) -> str:
    parts = [
        f"{k}: {v}"
        for k, v in sorted(m.pauli_decompose().items())
        if not v.is_zero
    ]
    return "; ".join(parts) if parts else "0"


class CheckRecord(NamedTuple):
    provenance: str
    expression: str
    matched_target: str
    difference: str


class VerificationReport(NamedTuple):
    case: str
    status: str
    equations: list
    notes: list
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "status": self.status,
            "equations": [r._asdict() for r in self.equations],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)

    def to_text(self) -> str:
        lines = [f"case: {self.case}", f"status: {self.status}", "equations:"]
        for r in self.equations:
            lines.append(f"- provenance: {r.provenance}")
            lines.append(f"  expression: {r.expression}")
            lines.append(f"  matched target: {r.matched_target}")
            lines.append(f"  difference: {r.difference}")
        lines.append("notes:")
        for n in self.notes:
            lines.append(f"- {n}")
        lines.append(f"wall time: {self.wall_time:.3f}s")
        return "\n".join(lines) + "\n"


class _Run:
    """Collects check records for one pipeline and derives the status."""

    def __init__(self, case: str):
        self.case = case
        self.records: list = []
        self.notes: list = []
        self.failed = False
        self.noted = False
        self._t0 = time.monotonic()

    # -- record constructors ------------------------------------------------
    def record(self, provenance, expression, matched_target, difference):
        self.records.append(
            CheckRecord(provenance, expression, matched_target, difference)
        )

    def note(self, text: str):
        self.notes.append(text)

    def fail(self, provenance: str, text: str):
        self.failed = True
        self.record(provenance, text, "(unreachable)", "FAILED")
        self.note(f"FAILED: {text}")

    def assert_true(self, provenance: str, ok: bool, expression: str,
                    matched_target: str):
        if not ok:
            self.failed = True
        self.record(provenance, expression, matched_target,
                    "0" if ok else "FAILED")

    def compare(self, provenance: str, a, target_name: str, b,
                expected=None, canonical: bool = False):
        """Compare ``a`` with ``b`` (both ``NCExpr`` or both ``Mat2``) and
        record the verdict; the one place a comparison is decided.

        Without ``expected`` the two must be equal.  With ``expected`` the
        comparison is documented NOT to close: the difference ``a - b``
        must equal the independently frozen ``expected`` value exactly,
        and for matrices ``expected`` must be nonzero.  ``canonical``
        first divides each expression by its canonical scale."""
        is_mat = isinstance(a, Mat2)
        show = _mat_str if is_mat else str
        if canonical:
            a, b = a.canonical(), b.canonical()
        if expected is None:
            ok = a == b
            difference = "0" if ok else f"MISMATCH: {show(a - b)}"
        else:
            diff = a - b
            ok = diff == expected and not (is_mat and expected.is_zero)
            difference = (show(diff) if ok else
                          f"MISMATCH: expected {show(expected)}, "
                          f"got {show(diff)}")
            self.noted |= ok
        self.failed |= not ok
        self.record(provenance, show(a), target_name, difference)

    def unmatched(self, provenance: str, a: NCExpr, note: str):
        self.noted = True
        self.record(provenance, str(a), "(no printed counterpart)", "")
        self.note(note)

    def assert_close(self, provenance: str, value: float, tol: float):
        ok = value == value and value < tol  # NaN fails
        if not ok:
            self.failed = True
        self.record(provenance, f"{value:.3e}", f"< {tol:g}",
                    "0" if ok else "EXCEEDS")

    # -- report -------------------------------------------------------------
    def report(self) -> VerificationReport:
        if self.failed:
            status = DISCREPANCY
        elif self.noted:
            status = VERIFIED_WITH_NOTES
        else:
            status = VERIFIED
        return VerificationReport(
            self.case, status, self.records, self.notes,
            time.monotonic() - self._t0,
        )


# ---------------------------------------------------------------------------
# classical pipeline
# ---------------------------------------------------------------------------
def _fn_classical(negative: bool = False) -> _Run:
    run = _Run("fn-classical")
    fn = catalog.build("fn-pair")
    qb = fn.q.substitute({"v": _up()})
    if negative:
        # mutation: drop the -alpha/lam term from the spectral member
        qb = qb + Mat2.from_pauli({"s1": _p("alpha/lam")})
        run.note("NEGATIVE CONTROL: the -alpha/lam term of the spectral "
                 "member was removed before extraction.")
    residual = zero_curvature_residual(fn.p, qb)
    eqs = extract_equations(residual, label="fn")
    run.assert_true("compatibility extraction", len(eqs) == 1,
                    f"{len(eqs)} equation(s)", "exactly one equation")
    eq = eqs[0]
    run.assert_true(
        "extraction provenance", eq.describe_provenance() ==
        "fn: entry 12, lam^0, scale -2*i; entry 21, lam^0, scale 2*i",
        eq.describe_provenance(),
        "fn: entry 12, lam^0, scale -2*i; entry 21, lam^0, scale 2*i",
    )
    resid_form = catalog.build("qmpii-target-residual").lhs.substitute(
        {"v": NCExpr.zero()}
    )
    run.compare("matrix-level equation", eq.lhs,
                "qmpii-target-residual (v = 0)", resid_form, canonical=True)
    sc = eq.lhs.scalarize()
    run.compare("scalar mode", sc, "pii-classical-derived",
                catalog.build("pii-classical-derived").lhs, canonical=True)
    printed = catalog.build("pii-classical").lhs
    run.compare("scalar mode vs printed convention", sc,
                "pii-classical", printed, expected=_p("2*z*u"), canonical=True)
    run.note("The compatibility closes on the +z*u convention "
             "(pii-classical-derived); the printed head equation carries "
             "-z*u.  The reflection z -> -z with alpha fixed maps one onto "
             "the other exactly.")
    run.compare("scalar mode under z -> -z", sc.reflect_z(),
                "pii-classical", printed, canonical=True)
    return run


# ---------------------------------------------------------------------------
# quantum compatibility pipeline
# ---------------------------------------------------------------------------
def _prop31(negative: bool = False, rules=None) -> _Run:
    run = _Run("prop31")
    pair = catalog.build("qpii-pair")
    target = catalog.build("qmpii-target-residual").lhs
    pb, qb = pair.p, pair.q
    if negative:
        # mutation: drop the 4*v identity component of the z-member
        pb = pb - Mat2.from_pauli({"I": _p("4*v")})
        run.note("NEGATIVE CONTROL: the 4*v identity component of the "
                 "z-member was removed before extraction.")

    nrm = (lambda e: normalize(e, rules)) if rules is not None else (lambda e: e)

    if rules is None and not negative:
        # --- printed display audits (free algebra, no relations) ---------
        v1 = Mat2.from_pauli(
            {
                "s3": _p("-i*(2*u'*u + 2*u*u' + 1)"),
                "s2": _p("-2*u''"),
                "s1": _p("4*lam*u'"),
            }
        )
        run.compare("z-derivative display of the spectral member",
                    qb.d_dz(), "(printed display)", v1)
        run.compare("spectral derivative display of the z-member",
                    pb.d_dlambda(), "(-i on s3)",
                    Mat2.from_pauli({"s3": _p("-i")}))
        asp = catalog.build("qpii-pair-asprinted")
        run.compare(
            "spectral member as printed", asp.q, "qpii-pair", qb,
            expected=Mat2.from_pauli({"s3": _p("-(2-2*i)*u^2")}),
        )
        run.note("The printed spectral member writes its s3 coefficient as "
                 "-(4*i*lam^2 + i*z + 2*u^2); its own z-derivative display "
                 "requires -i*(4*lam^2 + z + 2*u^2).  All derived results "
                 "use the display-consistent reading, and the as-printed "
                 "reading fails to reproduce the cubic term.")
        asp_eqs = extract_equations(
            zero_curvature_residual(asp.p, asp.q), label="prop31-asprinted"
        )
        asp_main = _eq_with(asp_eqs, "12", 0)
        run.assert_true(
            "as-printed member compatibility",
            asp_main.lhs.canonical() != target.canonical(),
            str(asp_main.lhs),
            "must NOT match qmpii-target-residual (cubic term becomes "
            "2*i*u^3)",
        )
        comm = mat_commutator(pb, qb)
        d_plus = _p("4*lam*u' + 4*i*u^3 + i*[z,u]_+ + 2*i*alpha "
                    "+ 2*i*[v,u']_- - 2*i*lam*hbar")
        d_minus = _p("4*lam*u' - 4*i*u^3 - i*[z,u]_+ - 2*i*alpha "
                     "- 2*i*hbar*[v,u']_- - 2*i*lam*hbar")
        diag_pr = _p("i*[z,v]_- - 2*i*[u,u']_+ - (1/2)*hbar*u")
        run.compare(
            "commutator entry 12 vs printed display", comm.entries[1],
            "(printed delta-plus display)", d_plus,
            expected=_p("-16*lam*[u,v] - 6*i*[u',v]"),
        )
        run.compare(
            "commutator entry 21 vs printed display", comm.entries[2],
            "(printed delta-minus display)", d_minus,
            expected=_p("-16*lam*[u,v] + 8*i*[u',v] - 2*i*hbar*[u',v]"),
        )
        run.compare(
            "commutator entry 11 vs printed display", comm.entries[0],
            "(printed diagonal display)", diag_pr,
            expected=_p("-(3/2)*hbar*u + 3*i*[z,v] + 8*i*[u^2,v]"),
        )
        run.note("The printed commutator displays disagree with the exact "
                 "commutator by the frozen differences recorded above "
                 "(dropped 16*lam*[u,v] pieces, coefficient slips on "
                 "[u',v], and a stray hbar); the compatibility analysis "
                 "below never uses the displays.")

    residual, e1, e2, e3 = _prop31_equations(pb, qb, rules)

    if not negative:
        n12 = residual.entries[1].scalar_mul(QQi(0, Fraction(-1, 2)))
        n21 = residual.entries[2].scalar_mul(QQi(0, Fraction(1, 2)))
        if rules is None:
            run.compare(
                "off-diagonal residual entry 12 over 2*i", n12, "(frozen)",
                _p("-alpha + lam*hbar + u'' - (1/2)*[z,u]_+ "
                   "- 8*i*lam*[u,v] + 4*[u',v] - 2*u^3"),
            )
            run.compare(
                "off-diagonal residual entry 21 over -2*i", n21, "(frozen)",
                _p("-alpha - lam*hbar + u'' - (1/2)*[z,u]_+ "
                   "+ 8*i*lam*[u,v] + 4*[u',v] - 2*u^3"),
            )
        parts12 = n12.split_lambda()
        parts21 = n21.split_lambda()
        lam1_12 = parts12.get(1, NCExpr.zero())
        lam1_21 = parts21.get(1, NCExpr.zero())
        run.compare("lam-linear parts of the two normalized entries",
                    lam1_12 + lam1_21, "(cancellation on addition)",
                    NCExpr.zero())
        run.note("The raw off-diagonal residual entries carry -2*i*lam*hbar "
                 "and +2*i*lam*hbar respectively; after normalization the "
                 "lam-linear parts are exact negatives and cancel when the "
                 "two equations are added, which is how the lam-free "
                 "second-order equation emerges.")
        summed = parts12.get(0, NCExpr.zero()) + parts21.get(
            0, NCExpr.zero()
        )
        run.compare(
            "sum of the lam-free normalized entries", summed,
            "qmpii-target-residual", nrm(target), canonical=True,
        )

    commz = nrm(catalog.build("commutation-zv").lhs)
    if commz.is_zero:
        run.compare(
            "diagonal equation under the active rules", e1,
            "commutation-zv (rewritten to 4*i*[v,u^2])",
            nrm(_p("4*i*[v,u^2]")),
            canonical=True,
        )
        run.note("Under the quantum-zv rules the commutation relation "
                 "rewrites to zero and the diagonal equation reduces to its "
                 "residual 4*i*[v,u^2] obstruction term.")
    else:
        run.compare("diagonal equation", e1, "commutation-zv",
                    commz, expected=nrm(_p("4*i*[v,u^2]")), canonical=True)
        run.note("The diagonal of the residual reproduces the printed "
                 "commutation relation [z,v] = -(i/2)*hbar*u only modulo "
                 "4*i*[v,u^2]; the relation as printed therefore also "
                 "presumes [v, u^2] = 0.")
    run.unmatched(
        "lam-linear off-diagonal equation", e2,
        "The lam-linear equation hbar = 8*i*[u,v] has no printed "
        "counterpart; it is the constraint that makes the lam-linear "
        "parts cancel, and it specializes to the derivative commutation "
        "relation under v = u'.",
    )
    run.compare("lam-free off-diagonal equation", e3,
                "qmpii-target-residual", nrm(target), canonical=True)
    run.compare(
        "lam-free off-diagonal equation vs printed form", e3,
        "qmpii-target-asprinted",
        nrm(catalog.build("qmpii-target-asprinted").lhs),
        expected=nrm(_p("[z,u]_+")),
        canonical=True,
    )
    run.compare(
        "lam-free off-diagonal equation vs printed sum", e3,
        "qmpii-target-derived",
        nrm(catalog.build("qmpii-target-derived").lhs),
        expected=nrm(_p("[z,u]_+ + 3*[v,u']")),
        canonical=True,
    )
    run.note("Two documented deviations of the printed second-order "
             "equation: the anticommutator (1/2)*[z,u]_+ enters the "
             "residual with the opposite sign to the printed form, and the "
             "[v,u'] coefficient stays 4 when the two off-diagonal "
             "equations are added, while the printed sum shows 1.")
    return run


# ---------------------------------------------------------------------------
# the three specialization pipelines
# ---------------------------------------------------------------------------
def _case_i(negative: bool = False) -> _Run:
    run = _Run("case-i")
    bind = NCExpr.gen("u") if negative else _up()
    if negative:
        run.note("NEGATIVE CONTROL: v was bound to u instead of u'.")
    subs = {"v": bind}
    printed = catalog.build("qmpii-system-asprinted")
    ci = catalog.build("case-i-system")
    run.compare("printed second-order equation under v = u'",
                printed.equations[0].substitute(subs), "case-i-system line 1",
                ci.equations[0])
    run.compare("printed commutation relation under v = u'",
                printed.equations[1].substitute(subs), "case-i-system line 2",
                ci.equations[1])
    run.compare("derivative of [z,u]", _p("[z,u]").d_dz(),
                "[z,u'] (so line 2 is d/dz of the printed relation)",
                _p("[z,u']"))

    pair = catalog.build("qpii-pair")
    _, e1, e2, e3 = _prop31_equations(pair.p, pair.q)
    e1, e2, e3 = (e.substitute(subs) for e in (e1, e2, e3))
    run.compare("diagonal equation under v = u'", e1,
                "case-i-system line 2", ci.equations[1],
                expected=_p("4*i*[u',u^2]"), canonical=True)
    run.note("The specialized diagonal equation reproduces the derivative "
             "commutation relation modulo 4*i*[u',u^2]: the case "
             "implicitly presumes [u', u^2] = 0 along with the relation "
             "itself.")
    run.compare("lam-free off-diagonal equation under v = u'", e3,
                "case-i-system line 1", ci.equations[0],
                expected=_p("[z,u]_+"), canonical=True)
    run.unmatched(
        "lam-linear equation under v = u'", e2,
        "Under v = u' the lam-linear constraint becomes "
        "hbar = 8*i*[u,u'], a second derivative commutation relation the "
        "printed case never displays.",
    )
    return run


def _case_ii(negative: bool = False) -> _Run:
    run = _Run("case-ii")
    # the mutation flips the sign of the hbar term in the quantum-zu rules
    zu = (_z_tower("quantum-zu-flipped", "u", -1) if negative
          else builtin_ruleset("quantum-zu"))
    if negative:
        run.note("NEGATIVE CONTROL: the sign of the hbar term in the "
                 "normal-ordering rules u^(k)*z -> z*u^(k) +/- (i/2)*hbar*"
                 "u^(k) was flipped.")
    u = NCExpr.gen("u")
    display = catalog.build("case-ii-display").lhs
    dmpii = catalog.build("dmpii").lhs
    dmpii_limit = dmpii.classical_limit().scalarize()
    source = catalog.build("qmpii-target-asprinted").lhs.substitute({"v": u})
    derived = normalize(source.d_dz(), zu)
    run.compare(
        "z-derivative of the second-order equation at v = u", derived,
        "(frozen third-order form)",
        _p("u + (1/4)*i*hbar*u' + u''' + z*u' - 4*u*u'' + 4*u''*u "
           "- 2*u^2*u' - 2*u*u'*u - 2*u'*u^2"),
    )
    disp = display.substitute({"nu": u})
    run.compare(
        "third-order form vs printed display under the printed shift "
        "x = z - (i/4)*hbar",
        derived, "case-ii-display (z -> z - (i/4)*hbar)",
        disp - _p("(i/4)*hbar*u'"),
        expected=_p("(1/2)*i*hbar*u'"),
    )
    run.compare(
        "third-order form vs printed display under the corrected shift "
        "x = z + (i/4)*hbar",
        derived, "case-ii-display (z -> z + (i/4)*hbar)",
        disp + _p("(i/4)*hbar*u'"),
    )
    run.note("The printed change of variable x = z - (i/4)*hbar leaves a "
             "residue (1/2)*i*hbar*u'; the opposite shift "
             "x = z + (i/4)*hbar matches the derived third-order form "
             "exactly.")
    run.compare(
        "classical scalar limit of the third-order form",
        derived.classical_limit().scalarize(),
        "d/dz of pii-classical",
        catalog.build("pii-classical").lhs.d_dz().scalarize(),
        canonical=True,
    )
    run.compare(
        "printed display vs the third-order matrix equation",
        display, "dmpii", dmpii.substitute({"u": NCExpr.gen("nu")}),
        expected=_p("(2/3)*nu + (2/3)*z*nu' - 7*nu*nu'' + 7*nu''*nu "
                    "- 2*nu^2*nu' + 4*nu*nu'*nu - 2*nu'*nu^2"),
    )
    run.assert_true(
        "scalar classical limits of the display and the matrix equation",
        disp.classical_limit().scalarize().canonical()
        != dmpii_limit.canonical(),
        "u + u''' + z*u' - 6*u^2*u'  vs  u + 3*u''' + z*u' - 18*u^2*u'",
        "the two scalar limits must differ (they are related by rescaling "
        "u and z with cube roots of 3, not equal)",
    )
    run.compare(
        "scalar classical limit of the matrix equation", dmpii_limit,
        "dpii-scalar", catalog.build("dpii-scalar").lhs.scalarize(),
        canonical=True,
    )
    run.note("The printed identification of the third-order display with "
             "the matrix flow's equation does not hold coefficient-wise "
             "(frozen difference recorded); their scalar classical limits "
             "are related by the rescaling u -> 3^(1/3)*u, z -> 3^(1/3)*z "
             "rather than equal.")
    return run


def _case_iii_v0(negative: bool = False) -> _Run:
    run = _Run("case-iii-v0")
    pair = catalog.build("qpii-pair")
    fn = catalog.build("fn-pair")
    pb = pair.p.substitute({"v": NCExpr.zero()})
    qb = pair.q
    if negative:
        run.note("NEGATIVE CONTROL: the hbar -> 0 limit was skipped.")
    else:
        pb = pb.classical_limit()
        qb = qb.classical_limit()
    run.compare("z-member at v = 0, hbar -> 0", pb, "fn-pair z-member",
                fn.p)
    run.compare("spectral member at hbar -> 0", qb,
                "fn-pair spectral member (v bound to u')",
                fn.q.substitute({"v": _up()}))
    run.note("The printed classical spectral member names v in its s2 "
             "slot; entrywise equality holds with v bound to u', the "
             "binding the classical pipeline itself uses.")
    eqs = extract_equations(
        zero_curvature_residual(pb, qb.substitute({"v": _up()})),
        label="case-iii-v0",
    )
    run.assert_true("compatibility extraction", len(eqs) == 1,
                    f"{len(eqs)} equation(s)", "exactly one equation")
    run.compare(
        "scalar mode of the specialized compatibility",
        eqs[0].lhs.scalarize(), "pii-classical-derived",
        catalog.build("pii-classical-derived").lhs,
        canonical=True,
    )
    return run


def _case_iii_vu(negative: bool = False) -> _Run:
    run = _Run("case-iii-vu")
    pair = catalog.build("qpii-pair")
    fn = catalog.build("fn-pair")
    pb = pair.p.substitute({"v": _up()}).classical_limit()
    run.compare(
        "z-member at v = u', hbar -> 0", pb, "fn-pair z-member", fn.p,
        expected=Mat2.from_pauli({"I": _p("4*u'")}),
    )
    run.note("At v = u' the z-member keeps a 4*u' identity component "
             "relative to the classical pair; identity components drop "
             "out of the scalar compatibility, so the reduction below "
             "still closes.")
    residual = zero_curvature_residual(
        pair.p.substitute({"v": _up()}), pair.q
    ).classical_limit()
    if negative:
        run.note("NEGATIVE CONTROL: the scalar projection was skipped.")
    else:
        residual = residual.scalarize()
    eqs = extract_equations(residual, label="case-iii-vu")
    run.assert_true("compatibility extraction", len(eqs) == 1,
                    f"{len(eqs)} equation(s)", "exactly one equation")
    eq = eqs[0]
    run.compare("scalar classical compatibility at v = u'", eq.lhs,
                "pii-classical-derived",
                catalog.build("pii-classical-derived").lhs, canonical=True)
    alt = zero_curvature_residual(
        pair.p.substitute({"v": NCExpr.gen("u")}), pair.q
    ).classical_limit().scalarize()
    alt_eqs = extract_equations(alt, label="case-iii-vu-alt")
    run.assert_true(
        "alternative reading v = u", len(alt_eqs) == 1
        and alt_eqs[0].lhs.canonical() == eq.lhs.canonical(),
        str(alt_eqs[0].lhs if alt_eqs else "(none)"),
        "same scalar classical reduction as v = u'",
    )
    run.note("The case is stated once with v = u' and once with v = u; "
             "both bindings give the same scalar classical compatibility "
             "because v enters it only through terms that vanish in the "
             "commutative scalar limit.")
    return run


# ---------------------------------------------------------------------------
# gauge pipeline
# ---------------------------------------------------------------------------
def _prop41_gauge(negative: bool = False) -> _Run:
    run = _Run("prop41-gauge")
    pair = catalog.build("qpii-pair")
    gauge = catalog.build("gauge-G")
    g, g_inv = gauge.g, gauge.g_inv
    if negative:
        entries = list(g_inv.entries)
        entries[0] = entries[0] + NCExpr.one()
        g_inv = Mat2(entries)
        run.note("NEGATIVE CONTROL: the stored inverse of the gauge matrix "
                 "was perturbed by adding 1 to its first entry.")
    try:
        pt = gauge_transform(pair.p, g, g_inv, kind="z-part")
        qt = gauge_transform(pair.q, g, g_inv, kind="lambda-part")
    except GaugeError as exc:
        run.fail("gauge inverse check", f"gauge transform rejected: {exc}")
        return run

    derived = catalog.build("gauge-pair-derived")
    run.compare("conjugated z-member", pt, "gauge-pair-derived z-member",
                derived.p)
    run.compare("conjugated spectral member", qt,
                "gauge-pair-derived spectral member", derived.q)
    printed = catalog.build("gauge-pair-asprinted")
    run.compare(
        "conjugated z-member vs printed", pt,
        "gauge-pair-asprinted z-member", printed.p,
        expected=Mat2.from_pauli({"s2": _p("2*i*lam"), "I": _p("4*v - 4*u")}),
    )
    defs = {
        "p": _p("u^2 + u' + (1/2)*z"),
        "q": _p("u^2 - u' + (1/2)*z"),
    }
    run.compare(
        "conjugated spectral member vs printed "
        "(defining relations substituted)",
        qt, "gauge-pair-asprinted spectral member",
        printed.q.substitute(defs),
        expected=Mat2.from_pauli(
            {
                "Ip": _p("8*lam^2 - (5/4)*i*hbar"),
                "Im": _p("8*lam^2 + 2*z + 4*u^2 - 4*u' + (3/4)*i*hbar"),
            }
        ),
    )
    run.note("The printed conjugated pair differs from the exact "
             "conjugation by the frozen matrices recorded above: the "
             "z-member flips the sign of its i*lam*s2 part and renames v "
             "as u, and the spectral member's nilpotent slots drop the "
             "8*lam^2 + ... payload that the exact computation retains.")

    r0, e1, e2, e3 = _prop31_equations(pair.p, pair.q)
    rt = zero_curvature_residual(pt, qt)
    run.assert_true(
        "conjugated residual equals the conjugated original residual",
        rt == g * r0 * g_inv, _mat_str(rt), "G * residual * G^-1",
    )

    eqs = extract_equations(rt, label="prop41")
    g2 = _eq_with(eqs, "11", 1)
    g12 = _eq_with(eqs, "12", 0)
    g21 = _eq_with(eqs, "21", 0)
    i_unit = NCExpr.imag_unit()
    run.compare("conjugated lam-linear equation", g2.lhs,
                "(lam-linear equation of the unconjugated pair)",
                e2, canonical=True)
    run.compare(
        "conjugated equation from entry 12", g12.lhs,
        "(second-order equation minus i times diagonal equation)",
        e3.canonical() - i_unit * e1.canonical(),
        canonical=True,
    )
    run.compare(
        "conjugated equation from entry 21", g21.lhs,
        "(second-order equation plus i times diagonal equation)",
        e3.canonical() + i_unit * e1.canonical(),
        canonical=True,
    )
    run.note("Conjugation mixes the unconjugated equations rather than "
             "producing new ones: the off-diagonal equations of the "
             "conjugated pair are the complex combinations "
             "(second-order) -/+ i*(diagonal).")

    sysd = catalog.build("qspii-system-asprinted")
    l1, l2, l3 = sysd.equations
    run.compare("third printed line under the defining relations",
                l3.substitute(defs), "(identity)", NCExpr.zero())
    run.compare(
        "sum of the first two printed lines under the defining relations",
        (l1 + l2).substitute(defs), "(derivative commutation relation)",
        _p("-2*[v,u'] + (i/2)*hbar*u"),
    )
    run.note("Adding the first two printed lines encodes the relation "
             "[v,u'] = (i/4)*hbar*u: the printed system is consistent "
             "exactly when that derivative commutation relation holds.")
    run.compare(
        "difference of the first two printed lines under the defining "
        "relations",
        (l1 - l2).substitute(defs), "(elimination form)",
        _p("u'' - [v,u^2] - (1/2)*[v,z] - 2*u^3 - (1/2)*[z,u]_+ + alpha"),
        canonical=True,
    )
    return run


# ---------------------------------------------------------------------------
# quantum P34 chain
# ---------------------------------------------------------------------------
def _qp34_chain(negative: bool = False) -> _Run:
    run = _Run("qp34-chain")
    inv = builtin_ruleset("inverse-pq")
    sysd = catalog.build("qspii-system-asprinted")
    l1, l2, _ = sysd.equations
    aff = catalog.build("qp34-affine-asprinted").lhs
    run.compare("factored affine relation",
                catalog.build("qp34-affine-factored").lhs,
                "qp34-affine-asprinted", aff)
    run.compare(
        "first gauge line under v = u'", l1.substitute({"v": _up()}),
        "qp34-affine-asprinted", aff,
        expected=_p("[p,u'] + [u,p]"),
    )
    run.note("The printed affine relation reorders the first gauge line "
             "silently: it drops [p,u'] + [u,p], i.e. it presumes those "
             "commutators vanish against the relation's other terms.")

    delta_form = _p("p' - 2*u*p + delta")
    run.compare("affine relation under p -> p + beta/2",
                aff.substitute({"p": _p("p + (1/2)*beta")}),
                "(delta-form affine relation)", delta_form)
    run.compare(
        "affine relation under the stated shift p -> p + beta",
        aff.substitute({"p": _p("p + beta")}),
        "(delta-form affine relation)", delta_form,
        expected=_p("-beta*u"),
    )
    run.compare("printed bold definition",
                catalog.build("qp34-bold-defn").lhs,
                "qp34-defs line 1 shifted by beta/2",
                catalog.build("qp34-defs").equations[0].substitute(
                    {"p": _p("p + (1/2)*beta")}))
    run.note("The stated shift by the full beta leaves a -beta*u residue; "
             "the printed bold definition of the shifted variable is the "
             "beta/2 shift, which produces the delta-form exactly.  All "
             "subsequent steps use the beta/2 shift.")

    u_half = (_p("(1/2)*(p' - delta)*p^-1") if negative
              else _p("(1/2)*(p' + delta)*p^-1"))
    if negative:
        run.note("NEGATIVE CONTROL: the sign of delta in the half "
                 "log-derivative inversion was flipped.")
    run.compare("half log-derivative solves the delta-form affine relation",
                normalize(delta_form.substitute({"u": u_half}), inv),
                "(zero)", NCExpr.zero())
    ua_p = normalize(u_half.d_dz(), inv)
    ua_sq = normalize(u_half * u_half, inv)
    run.compare(
        "square of the half log-derivative", ua_sq,
        "qp34-usquare-asprinted display",
        normalize(_p("u^2") - catalog.build("qp34-usquare-asprinted").lhs,
                  inv),
    )
    run.compare(
        "derivative of the half log-derivative", ua_p,
        "qp34-uprime-derived display",
        normalize(_p("u'") - catalog.build("qp34-uprime-derived").lhs, inv),
    )
    run.compare(
        "derivative of the half log-derivative vs printed display", ua_p,
        "qp34-uprime-asprinted display",
        normalize(_p("u'") - catalog.build("qp34-uprime-asprinted").lhs,
                  inv),
        expected=_p("(1/2)*p''*p^-1 - delta*p^-1*p'*p^-1"),
    )
    run.note("The printed u' display drops (1/2)*p''*p^-1 and flips the "
             "sign of its delta term relative to the exact derivative; "
             "the printed u^2 display is exact.")

    e_defn = _p("p + (1/2)*beta - (1/2)*z") - ua_sq - ua_p
    t = normalize(e_defn * _p("-2*p"), inv)
    run.compare("second-order form of the chain (times -2*p)", t,
                "qp34-target-derived",
                catalog.build("qp34-target-derived").lhs)
    t_asp = catalog.build("qp34-target-asprinted").lhs
    run.compare(
        "chain outcome vs printed target", t, "qp34-target-asprinted",
        t_asp,
        expected=_p("-p'*p^-1*p' + (1/2)*delta*p'*p^-1 "
                    "- (1/2)*delta*p^-1*p'"),
    )
    run.note("The printed target writes +(1/2)*p'*p^-1*p' where the chain "
             "produces -(1/2)*p'*p^-1*p', and omits the ordered linear "
             "delta terms; the frozen difference is recorded above.")

    ub = _p("u") - catalog.build("qp34-log-derivative").lhs
    s_b = normalize(ub * ub, inv) + normalize(ub.d_dz(), inv)
    t_b = normalize(
        (s_b - _p("p - (1/2)*z + (1/2)*beta")) * _p("p"), inv
    )
    run.compare("face-value route with the printed log-derivative", t_b,
                "qp34-target-routeb", catalog.build("qp34-target-routeb").lhs)
    run.note("Taking the printed no-half log-derivative at face value "
             "yields qp34-target-routeb, which matches neither the printed "
             "target nor the half-log-derivative chain; the printed "
             "inversion is only consistent with the chain when read with "
             "the factor 1/2.")

    aff_q = catalog.build("qp34-affine-q").lhs
    run.compare(
        "second gauge line under v = u'", l2.substitute({"v": _up()}),
        "qp34-affine-q", aff_q,
        expected=_p("-[u,q] + [u',q]"),
    )
    q_delta_form = _p("q' + 2*u*q - alpha - 1/2")
    run.compare("q-side affine relation under q -> q - beta/2",
                aff_q.substitute({"q": _p("q - (1/2)*beta")}),
                "(q-side delta form)", q_delta_form)
    uq = _p("(1/2)*(alpha + 1/2)*q^-1 - (1/2)*q'*q^-1")
    run.compare("q-side half log-derivative solves the q-side delta form",
                normalize(q_delta_form.substitute({"u": uq}), inv),
                "(zero)", NCExpr.zero())
    e_q = (_p("q - (1/2)*beta - (1/2)*z") - normalize(uq * uq, inv)
           + normalize(uq.d_dz(), inv))
    t_q = normalize(e_q * _p("-2*q"), inv)
    run.compare("q-side chain outcome", t_q, "qp34-target-q-derived",
                catalog.build("qp34-target-q-derived").lhs)
    run.compare(
        "q-side outcome vs printed q target", t_q,
        "qp34-target-q-asprinted",
        catalog.build("qp34-target-q-asprinted").lhs,
        expected=_p("alpha*q^-1 + (1/4)*q^-1*q' + (1/2)*alpha*q^-1*q' "
                    "- (1/4)*q'*q^-1 - (1/2)*alpha*q'*q^-1 - q'*q^-1*q'"),
    )
    run.note("The exact q-side pairing is (alpha + 1/2)^2 where the "
             "printed q target reuses delta^2 = (alpha - 1/2)^2; the "
             "frozen difference is recorded above.")

    run.compare(
        "hbar -> 0 scalar limit of the chain outcome",
        t.classical_limit().scalarize(),
        "classical-p34-q-derived (q renamed to p)",
        catalog.build("classical-p34-q-derived").lhs.substitute(
            {"q": NCExpr.gen("p")}
        ).scalarize(),
        canonical=True,
    )
    run.compare(
        "hbar -> 0 scalar limit of the printed target",
        t_asp.classical_limit().scalarize(),
        "classical-p34-q (q renamed to p)",
        catalog.build("classical-p34-q").lhs.substitute(
            {"q": NCExpr.gen("p")}
        ).scalarize(),
        expected=_p("12*p^-1*p'*p'"),
        canonical=True,
    )
    run.note("The classical limit of the exact chain outcome reproduces "
             "the half-coefficient classical equation "
             "(classical-p34-q-derived) exactly; neither the printed "
             "quantum target nor the printed full-coefficient classical "
             "equation closes against the other, and their canonical "
             "difference is the frozen 12*p^-1*p'*p'.")
    return run


def _qp34_comparison(negative: bool = False) -> _Run:
    run = _Run("qp34-comparison")
    t_asp = catalog.build("qp34-target-asprinted").lhs
    hbar2 = catalog.build("comparison-target").equations[1]
    if negative:
        hbar2 = hbar2 - _p("hbar^2*p")
        run.note("NEGATIVE CONTROL: the comparison variant's linear term "
                 "was shifted from (z - hbar^2)*p to (z - 2*hbar^2)*p.")
    half_hbar = catalog.build("results-summary").equations[3]
    run.compare("printed target minus the hbar^2 variant", t_asp - hbar2,
                "(hbar^2 - beta)*p", _p("(hbar^2 - beta)*p"))
    run.compare("printed target minus the hbar/2 variant", t_asp - half_hbar,
                "((1/2)*hbar - beta)*p", _p("((1/2)*hbar - beta)*p"))
    run.note("The three printed versions of the quantum P34 equation "
             "differ only in the coefficient of the linear p term: "
             "z - beta here, z - hbar^2 and z - hbar/2 elsewhere.  Both "
             "differences are exactly proportional to p, with the "
             "proportionality factors recorded above.")
    return run


# ---------------------------------------------------------------------------
# elimination pipeline
# ---------------------------------------------------------------------------
def _eliminate_pq(negative: bool = False) -> _Run:
    run = _Run("eliminate-pq")
    sysd = catalog.build("qspii-system-asprinted")
    l1, l2, l3 = sysd.equations
    if negative:
        defs = {"p": _p("u^2 + u' + z"), "q": _p("u^2 - u' + z")}
        run.note("NEGATIVE CONTROL: the defining relations dropped the "
                 "factor 1/2 on z.")
    else:
        defs = {"p": _p("u^2 + u' + (1/2)*z"), "q": _p("u^2 - u' + (1/2)*z")}
    run.compare("p - q under the defining relations",
                defs["p"] - defs["q"], "2*u'", _p("2*u'"))
    run.compare("p + q under the defining relations",
                defs["p"] + defs["q"], "2*u^2 + z", _p("2*u^2 + z"))
    run.compare("third printed line under the defining relations",
                l3.substitute(defs), "(identity)", NCExpr.zero())
    p_rhs = _p("p'") - l1
    q_rhs = _p("q'") - l2
    rem = _p("u''") - (p_rhs - q_rhs) / 2
    rem_defs = rem.substitute(defs)
    run.compare(
        "u'' eliminated through the printed lines and defining relations",
        rem_defs, "(elimination form)",
        _p("u'' - [v,u^2] - (1/2)*[v,z] - 2*u^3 - (1/2)*[z,u]_+ + alpha"),
    )
    sc = rem_defs.scalarize()
    run.compare("scalar limit of the elimination", sc,
                "(scalar second-order form)",
                _p("u'' - 2*u^3 - z*u + alpha"), canonical=True)
    run.compare(
        "scalar limit under z -> -z, alpha -> -alpha",
        sc.reflect_z().negate_alpha(), "pii-classical",
        catalog.build("pii-classical").lhs,
        canonical=True,
    )
    run.compare(
        "elimination form vs the anticommutator-form equation", rem_defs,
        "ncpii-vrvr", catalog.build("ncpii-vrvr").lhs,
        expected=_p("2 + alpha + i*hbar - (5/2)*z*u + (1/2)*z*v "
                    "- (5/2)*u*z - (1/2)*v*z + u*u*v - v*u*u"),
    )
    run.note("The anticommutator-form equation is printed with a free "
             "parameter beta; this grammar expands beta as the fixed macro "
             "i*hbar/4, and under that reading the equation does not "
             "coincide with the elimination form (frozen difference "
             "recorded).  The elimination form itself reduces exactly to "
             "the classical equation in the scalar limit.")
    return run


# ---------------------------------------------------------------------------
# numeric pipelines
# ---------------------------------------------------------------------------
def _numeric_pii(negative: bool = False) -> _Run:
    from . import numeric as nm

    run = _Run("numeric-pii")
    u0 = 1.1 if negative else 1.0
    if negative:
        run.note("NEGATIVE CONTROL: the initial value was moved off the "
                 "closed-form solution (u(1) = 1.1).")
    problem = nm.ODEProblem("pii", alpha=1, u0=u0, du0=-1.0)
    tr = nm.integrate(problem)
    err = float(max(abs(tr.u[k, 0, 0] - 1.0 / tr.grid[k])
                    for k in range(len(tr.grid))))
    run.assert_close("alpha = 1 trajectory against u = 1/z on [1, 5]",
                     err, 1e-8)
    run.assert_close("alpha = 1 independent finite-difference residual",
                     tr.max_fd_residual(), 1e-6)
    tr0 = nm.integrate(nm.ODEProblem("pii", alpha=0, u0=0.0, du0=0.0))
    peak = float(max(abs(tr0.u[k, 0, 0]) for k in range(len(tr0.grid))))
    run.assert_close("alpha = 0 trajectory against u = 0", peak, 1e-12)
    run.note("alpha = 1 with u(1) = 1, u'(1) = -1 must follow the "
             "closed-form rational solution u = 1/z; alpha = 0 with zero "
             "initial data must stay identically zero.")
    return run


def _numeric_p34_map(negative: bool = False) -> _Run:
    from . import numeric as nm

    run = _Run("numeric-p34-map")
    p_expr = _p("u^2 + u' + (1/2)*z")
    closure = (p_expr.d_dz() - _p("2*u") * p_expr + _p("delta")).scalarize()
    run.compare(
        "symbolic closure of the map p = u^2 + u' + z/2", closure,
        "(scalar flow u'' = 2*u^3 + z*u - alpha)",
        _p("u'' - 2*u^3 - z*u + alpha").scalarize(),
        canonical=True,
    )
    run.note("p' - 2*u*p + delta collapses symbolically to "
             "u'' - 2*u^3 - z*u + alpha: the map closes exactly on the "
             "u'' = 2*u^3 + z*u - alpha convention, which is the "
             "convention the integrator uses below.")
    rhs = "pii" if negative else "p34"
    if negative:
        run.note("NEGATIVE CONTROL: the trajectory was integrated under "
                 "the other sign convention (u'' = 2*u^3 - z*u + alpha).")
    try:
        generic = nm.p34_map_check(0.7, (0.3, -0.2), rhs=rhs)
    except nm.NumericError as exc:
        run.fail("generic trajectory pairing check", str(exc))
        return run
    run.assert_close(
        "generic alpha = 0.7 winning pairing residual "
        f"(c^2 = ({generic['winner']} side) {generic['winner_c2'].real:g})",
        generic["residual_q" if generic["winner"] == "q" else "residual_r"],
        1e-6,
    )
    loser = "residual_r" if generic["winner"] == "q" else "residual_q"
    run.assert_true(
        "generic alpha = 0.7 losing pairing residual",
        generic[loser] > 1e-2, f"{generic[loser]:.3e}", "> 0.01",
    )
    run.assert_true("generic winner is the (alpha - 1/2)^2 pairing",
                    generic["winner"] == "q", generic["winner"], "q")
    closed1 = nm.p34_map_check(1.0, (1.0, -1.0))
    run.assert_close("closed-form alpha = 1 (p = z/2) winning residual",
                     closed1["residual_q"], 1e-6)
    run.assert_true(
        "closed-form alpha = 1 losing pairing residual",
        closed1["residual_r"] > 1e-2, f"{closed1['residual_r']:.3e}",
        "> 0.01",
    )
    closed0 = nm.p34_map_check(0.0, (0.0, 0.0))
    run.assert_close("closed-form alpha = 0 (p = z/2) winning residual",
                     closed0["residual_q"], 1e-6)
    run.assert_true(
        "alpha = 0 pairings coincide",
        bool(closed0["coincident_pairings"]), str(
            closed0["coincident_pairings"]), "True",
    )
    run.note("At alpha = 0 the two pairings have the same coefficient "
             "(1/4), so both close on p = z/2; alpha = 1 separates them "
             "(1/4 against 9/4), and the generic trajectory separates "
             "them by eight orders of magnitude.")
    return run


def _numeric_dpii(negative: bool = False) -> _Run:
    from . import numeric as nm

    run = _Run("numeric-dpii")
    fi = catalog.build("dpii-first-integral").lhs
    run.compare(
        "z-derivative of the first integral (scalar image)",
        fi.d_dz().scalarize(), "dpii-scalar",
        catalog.build("dpii-scalar").lhs.scalarize(),
        canonical=True,
    )
    run.note("d/dz of u'' - 2*u^3 + (1/3)*z*u reproduces the scalar "
             "third-order equation exactly, so the integral must be "
             "constant along every trajectory of the flow.")
    if negative:
        run.note("NEGATIVE CONTROL: the drift of the mutated quantity "
                 "u'' - 2*u^3 + (1/2)*z*u is measured instead.")
        problem = nm.ODEProblem("dpii3", z0=1.0, z1=4.0, u0=0.3, du0=-0.1,
                                ddu0=0.2)
        tr = nm.integrate(problem)
        vals = [
            tr.ddu[k] - 2.0 * (tr.u[k] @ tr.u[k] @ tr.u[k])
            + 0.5 * tr.grid[k] * tr.u[k]
            for k in range(len(tr.grid))
        ]
        drift = float(max(abs((v - vals[0])[0, 0]) for v in vals))
        run.assert_close("first-integral drift along a generic trajectory",
                         drift, 1e-7)
        return run
    run.assert_close("first-integral drift along a generic trajectory",
                     nm.dpii_first_integral_check((0.3, -0.1, 0.2)), 1e-7)
    run.assert_close("first-integral drift along the zero trajectory",
                     nm.dpii_first_integral_check((0.0, 0.0, 0.0)), 1e-12)
    return run


# ---------------------------------------------------------------------------
# registry and named operations
# ---------------------------------------------------------------------------
_PIPELINES = {
    "fn-classical": _fn_classical,
    "prop31": _prop31,
    "case-i": _case_i,
    "case-ii": _case_ii,
    "case-iii-v0": _case_iii_v0,
    "case-iii-vu": _case_iii_vu,
    "prop41-gauge": _prop41_gauge,
    "qp34-chain": _qp34_chain,
    "qp34-comparison": _qp34_comparison,
    "eliminate-pq": _eliminate_pq,
    "numeric-pii": _numeric_pii,
    "numeric-p34-map": _numeric_p34_map,
    "numeric-dpii": _numeric_dpii,
}

#: The pipeline names, in the order ``--case all`` runs and reports them.
CASES = tuple(_PIPELINES)


def run(case: str, negative_control: bool = False,
        rules=None) -> VerificationReport:
    """Run one pipeline and return its report.  Any internal failure is
    itself a discrepancy, never an unhandled crash.  ``negative_control``
    runs the mutated twin, which must report a discrepancy.

    ``rules`` (prop31 only) supplies a RuleSet under which the residual,
    every catalog target and every frozen expected difference are
    normalized before comparison, so a matched pair stays matched and a
    documented mismatch keeps its (rewritten) difference.  A residual
    component that the rules rewrite to zero is read as the zero equation.
    The free-algebra display audits run only without rules."""
    if case not in _PIPELINES:
        raise VerifyError(
            f"unknown verification case {case!r}; expected one of "
            f"{', '.join(CASES)}"
        )
    if rules is not None and case != "prop31":
        raise VerifyError("rule sets apply only to case prop31")
    options = {} if rules is None else {"rules": rules}
    runner = _Run(case)
    try:
        runner = _PIPELINES[case](negative_control, **options)
    except (LaxlabError, KeyError, IndexError) as exc:
        runner.fail("pipeline execution", f"aborted: {exc}")
    return runner.report()
