"""Verification-pipeline tests: statuses, frozen differences, negative
controls, report determinism, and the structural invariants."""

import json

import pytest

from laxlab import catalog, cli, verify
from laxlab.laxmat import Mat2, extract_equations, zero_curvature_residual
from laxlab.ncexpr import (
    NCExpr,
    builtin_ruleset,
    combine_rulesets,
    parse,
)


def P(text: str) -> NCExpr:
    return parse(text)


#: expected status per pipeline: which ones close exactly and which carry
#: documented printed-form deviations
EXPECTED_STATUS = {
    "fn-classical": verify.VERIFIED_WITH_NOTES,
    "prop31": verify.VERIFIED_WITH_NOTES,
    "case-i": verify.VERIFIED_WITH_NOTES,
    "case-ii": verify.VERIFIED_WITH_NOTES,
    "case-iii-v0": verify.VERIFIED,
    "case-iii-vu": verify.VERIFIED_WITH_NOTES,
    "prop41-gauge": verify.VERIFIED_WITH_NOTES,
    "qp34-chain": verify.VERIFIED_WITH_NOTES,
    "qp34-comparison": verify.VERIFIED,
    "eliminate-pq": verify.VERIFIED_WITH_NOTES,
    "numeric-pii": verify.VERIFIED,
    "numeric-p34-map": verify.VERIFIED,
    "numeric-dpii": verify.VERIFIED,
}


def _record(report, provenance):
    for rec in report.equations:
        if rec.provenance == provenance:
            return rec
    raise AssertionError(
        f"{report.case}: no record with provenance {provenance!r}; have "
        f"{[r.provenance for r in report.equations]}"
    )


def test_all_pipelines_reach_expected_status():
    for case in verify.CASES:
        report = verify.run(case)
        assert report.status == EXPECTED_STATUS[case], (
            case, report.status, report.notes,
        )


def test_all_negative_controls_report_discrepancy():
    for case in verify.CASES:
        report = verify.run(case, negative_control=True)
        assert report.status == verify.DISCREPANCY, (case, report.status)


def test_unknown_case_rejected():
    with pytest.raises(verify.VerifyError):
        verify.run("prop99")
    with pytest.raises(verify.VerifyError):
        verify.run("vii")


def test_verify_all_covers_every_case_in_order(capsys):
    assert cli.main(["verify", "--case", "all", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["case"] for r in reports] == list(verify.CASES)


def test_pipeline_crash_becomes_discrepancy(monkeypatch):
    def broken(negative=False):
        raise KeyError("synthetic failure")

    monkeypatch.setitem(verify._PIPELINES, "prop31", broken)
    report = verify.run("prop31")
    assert report.status == verify.DISCREPANCY
    assert any("aborted" in n for n in report.notes)


# ---------------------------------------------------------------------------
# frozen report content
# ---------------------------------------------------------------------------
def test_fn_classical_frozen_records():
    rep = verify.run("fn-classical")
    assert _record(rep, "scalar mode").difference == "0"
    assert _record(rep, "scalar mode vs printed convention").difference == (
        "2*z*u"
    )
    assert _record(rep, "scalar mode under z -> -z").difference == "0"
    assert rep.wall_time < 1.0


def test_prop31_frozen_records():
    rep = verify.run("prop31")
    assert rep.wall_time < 5.0
    # the commutation relation is documented, matched modulo the frozen
    # quadratic obstruction
    diag = _record(rep, "diagonal equation")
    assert diag.matched_target == "commutation-zv"
    # the lam-linear cancellation is recorded exactly
    cancel = _record(rep, "lam-linear parts of the two normalized entries")
    assert cancel.difference == "0"
    assert any("-2*i*lam*hbar" in n and "cancel" in n for n in rep.notes)
    # the second-order equation closes against the residual-form target
    assert _record(rep, "lam-free off-diagonal equation").difference == "0"
    # the two documented printed deviations
    printed = _record(rep, "lam-free off-diagonal equation vs printed form")
    assert printed.difference == "z*u + u*z"
    summed = _record(rep, "lam-free off-diagonal equation vs printed sum")
    assert summed.difference == "z*u + u*z - 3*u'*v + 3*v*u'"
    assert any("coefficient" in n.lower() or "4" in n for n in rep.notes)


def test_case_ii_frozen_records():
    rep = verify.run("case-ii")
    exact = _record(
        rep,
        "third-order form vs printed display under the corrected shift "
        "x = z + (i/4)*hbar",
    )
    assert exact.difference == "0"
    slipped = _record(
        rep,
        "third-order form vs printed display under the printed shift "
        "x = z - (i/4)*hbar",
    )
    assert slipped.difference != "0"
    assert not slipped.difference.startswith("MISMATCH")


def test_qp34_chain_frozen_records():
    rep = verify.run("qp34-chain")
    assert _record(
        rep, "second-order form of the chain (times -2*p)"
    ).difference == "0"
    assert _record(rep, "q-side chain outcome").difference == "0"
    classical = _record(rep, "hbar -> 0 scalar limit of the chain outcome")
    assert classical.difference == "0"
    assert classical.matched_target == (
        "classical-p34-q-derived (q renamed to p)"
    )


def test_comparison_differences_are_proportional_to_p():
    rep = verify.run("qp34-comparison")
    assert rep.status == verify.VERIFIED
    for prov in ("printed target minus the hbar^2 variant",
                 "printed target minus the hbar/2 variant"):
        assert _record(rep, prov).difference == "0"


# ---------------------------------------------------------------------------
# report determinism and serialization
# ---------------------------------------------------------------------------
def test_json_reports_byte_deterministic():
    for case in ("fn-classical", "prop31", "qp34-chain"):
        a = verify.run(case).to_json()
        b = verify.run(case).to_json()
        assert a == b, case
        payload = json.loads(a)
        assert list(payload) == ["case", "status", "equations", "notes"]
        for eq in payload["equations"]:
            assert list(eq) == [
                "provenance", "expression", "matched_target", "difference",
            ]


def test_text_report_stable_excluding_wall_time():
    strip = lambda r: r.to_text().rsplit("wall time:", 1)[0]
    assert strip(verify.run("prop31")) == strip(verify.run("prop31"))
    text = verify.run("prop31").to_text()
    assert text.startswith("case: prop31\nstatus: ")
    assert "wall time:" in text


def test_json_omits_wall_time():
    payload = json.loads(verify.run("fn-classical").to_json())
    assert "wall_time" not in payload
    assert "wall time" not in payload


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------
def test_prop31_rules_monotonicity():
    """Supplying the relation rule set that the construction assumes must
    never turn the pipeline into a discrepancy."""
    base = verify.run("prop31")
    assert base.status != verify.DISCREPANCY
    for rules in (
        builtin_ruleset("quantum-zv"),
        combine_rulesets("zv+weyl", builtin_ruleset("quantum-zv"),
                         builtin_ruleset("weyl-pii")),
    ):
        rep = verify.run("prop31", rules=rules)
        assert rep.status != verify.DISCREPANCY, rep.notes


def test_classical_limit_commutes_with_extraction_on_prop31():
    """hbar -> 0 then extract agrees with extract then hbar -> 0, equation
    by equation (matched on provenance, compared canonically, and agreeing
    on which equations vanish)."""
    pair = catalog.build("qpii-pair")
    residual = zero_curvature_residual(pair.p, pair.q)

    limit_then_extract = {
        (eq.provenance[0].entry, eq.provenance[0].lam_power):
            eq.lhs.canonical()
        for eq in extract_equations(residual.classical_limit())
    }
    extract_then_limit = {}
    for eq in extract_equations(residual):
        key = (eq.provenance[0].entry, eq.provenance[0].lam_power)
        extract_then_limit[key] = eq.lhs.classical_limit().canonical()

    for key, lhs in extract_then_limit.items():
        if lhs.is_zero:
            assert key not in limit_then_extract or \
                limit_then_extract[key].is_zero
        else:
            assert key in limit_then_extract, key
            assert str(limit_then_extract[key]) == str(lhs), key
    for key in limit_then_extract:
        assert key in extract_then_limit, key


def test_named_wrappers_map_to_pipelines():
    assert verify.run("prop31").case == "prop31"
    for case in ("fn-classical", "case-i", "case-ii", "case-iii-v0",
                 "case-iii-vu", "prop41-gauge", "qp34-chain", "eliminate-pq"):
        assert verify.run(case).case == case


def test_pipelines_leave_shared_catalog_values_unchanged(monkeypatch):
    """Building each catalog entry once per run is safe only while no
    pipeline edits a value it was handed: with every build shared, each
    shared value still equals a fresh build after every pipeline and
    every twin has run."""
    fresh = catalog.build
    shared = {}
    calls = []

    def build_once(key):
        calls.append(key)
        if key not in shared:
            shared[key] = fresh(key)
        return shared[key]

    monkeypatch.setattr(catalog, "build", build_once)
    for case in verify.CASES:
        assert verify.run(case).status == EXPECTED_STATUS[case], case
        twin = verify.run(case, negative_control=True)
        assert twin.status == verify.DISCREPANCY, case
    assert len(calls) > len(shared) > 0
    for key, value in shared.items():
        assert value == fresh(key), key


# ---------------------------------------------------------------------------
# _Run.compare: one case per outcome
# ---------------------------------------------------------------------------
def _compare(a, b, **options):
    run = verify._Run("compare")
    run.compare("check", a, "target", b, **options)
    (rec,) = run.records
    return run, rec


def test_compare_exact_pass():
    run, rec = _compare(P("u + z"), P("z + u"))
    assert (rec.expression, rec.difference) == ("z + u", "0")
    assert run.report().status == verify.VERIFIED


def test_compare_exact_mismatch_records_difference():
    run, rec = _compare(P("2*u + z"), P("u + z"))
    assert rec.difference == "MISMATCH: u"
    assert run.report().status == verify.DISCREPANCY


def test_compare_canonical_records_canonical_form():
    run, rec = _compare(P("2*i*z*u + 4*u"), P("z*u - 2*i*u"), canonical=True)
    assert (rec.expression, rec.difference) == ("u + 1/2*i*z*u", "0")
    assert not run.failed


def test_compare_documented_mismatch_closes_exactly():
    run, rec = _compare(P("u + 2*z"), P("u"), expected=P("2*z"))
    assert (rec.expression, rec.difference) == ("2*z + u", "2*z")
    assert run.noted and not run.failed
    assert run.report().status == verify.VERIFIED_WITH_NOTES


@pytest.mark.parametrize("expected", ["z", "-2*z", "4*i*z"])
def test_compare_documented_mismatch_off_by_scale_fails(expected):
    run, rec = _compare(P("u + 2*z"), P("u"), expected=P(expected))
    assert rec.difference == f"MISMATCH: expected {expected}, got 2*z"
    assert run.report().status == verify.DISCREPANCY


def test_compare_zero_difference_closes_against_zero_expected():
    run, rec = _compare(P("u"), P("u"), expected=NCExpr.zero())
    assert rec.difference == "0"
    assert run.noted and not run.failed


def test_compare_zero_difference_fails_against_nonzero_expected():
    run, rec = _compare(P("u"), P("u"), expected=P("z"))
    assert rec.difference == "MISMATCH: expected z, got 0"
    assert run.report().status == verify.DISCREPANCY


def test_compare_matrix_mismatch_fails_against_zero_expected():
    m = Mat2.from_pauli({"s1": P("u")})
    run, rec = _compare(m, m, expected=Mat2.from_pauli({}))
    assert (rec.expression, rec.difference) == (
        "s1: u", "MISMATCH: expected 0, got 0")
    assert run.report().status == verify.DISCREPANCY
