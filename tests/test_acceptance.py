"""Acceptance gate: one test per acceptance criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``; the
``-v`` test row carries the same verdict) and enforces the criterion at its
stated tolerance and runtime.
"""

import time

import numpy as np

from laxlab import cli, verify
from laxlab import numeric

import _oracles as oracles


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def _record(report, provenance):
    for rec in report.equations:
        if rec.provenance == provenance:
            return rec
    raise AssertionError(f"{report.case}: missing record {provenance!r}")


def test_criterion_1_classical_compatibility_exact_and_fast():
    t0 = time.monotonic()
    rep = verify.run("fn-classical")
    elapsed = time.monotonic() - t0
    ok = (
        rep.status != verify.DISCREPANCY
        and _record(rep, "compatibility extraction").difference == "0"
        and _record(rep, "scalar mode").difference == "0"
        and _record(rep, "scalar mode under z -> -z").difference == "0"
        and elapsed < 1.0
    )
    assert _verdict(
        1, "classical pair compatibility -> scalar second-order equation",
        ok, f"status={rep.status}, {elapsed:.2f}s",
    )


def test_criterion_2_quantum_compatibility_with_documented_notes():
    t0 = time.monotonic()
    rep = verify.run("prop31")
    elapsed = time.monotonic() - t0
    diag = _record(rep, "diagonal equation")
    cancel = _record(rep, "lam-linear parts of the two normalized entries")
    main_eq = _record(rep, "lam-free off-diagonal equation")
    ok = (
        rep.status in (verify.VERIFIED, verify.VERIFIED_WITH_NOTES)
        and diag.matched_target == "commutation-zv"
        and cancel.difference == "0"
        and any("cancel" in n for n in rep.notes)
        and main_eq.difference == "0"
        and any("4" in n and "1" in n for n in rep.notes)
        and elapsed < 5.0
    )
    assert _verdict(
        2, "quantum pair compatibility: commutation relation, second-order "
        "equation, lam-linear cancellation",
        ok, f"status={rep.status}, {elapsed:.2f}s",
    )


def test_criterion_3a_reduction_to_classical_pair_entrywise():
    rep = verify.run("case-iii-v0")
    ok = (
        rep.status == verify.VERIFIED
        and _record(rep, "z-member at v = 0, hbar -> 0").difference == "0"
        and _record(rep, "spectral member at hbar -> 0").difference == "0"
    )
    assert _verdict(
        3, "reduction (a): v = 0, hbar -> 0 recovers the classical pair "
        "entrywise", ok, f"status={rep.status}",
    )


def test_criterion_3b_reduction_v_du_reproduces_printed_system():
    rep = verify.run("case-i")
    ok = (
        rep.status != verify.DISCREPANCY
        and _record(
            rep, "printed second-order equation under v = u'"
        ).difference == "0"
        and _record(
            rep, "printed commutation relation under v = u'"
        ).difference == "0"
    )
    assert _verdict(
        3, "reduction (b): v = u' reproduces the printed reduced system",
        ok, f"status={rep.status}",
    )


def test_criterion_3c_reduction_v_u_third_order_with_shift():
    rep = verify.run("case-ii")
    exact = _record(
        rep,
        "third-order form vs printed display under the corrected shift "
        "x = z + (i/4)*hbar",
    )
    stated = _record(
        rep, "printed display vs the third-order matrix equation"
    )
    ok = (
        rep.status != verify.DISCREPANCY
        and exact.difference == "0"
        and stated.difference != "0"
        and not stated.difference.startswith("MISMATCH")
    )
    assert _verdict(
        3, "reduction (c): v = u third-order equation under the variable "
        "shift, stated difference recorded exactly",
        ok, f"status={rep.status}",
    )


def test_criterion_4_gauge_conjugation_and_second_order_chain():
    gauge = verify.run("prop41-gauge")
    chain = verify.run("qp34-chain")
    classical = _record(chain, "hbar -> 0 scalar limit of the chain outcome")
    ok = (
        gauge.status != verify.DISCREPANCY
        and _record(gauge, "conjugated z-member").difference == "0"
        and _record(gauge, "conjugated spectral member").difference == "0"
        and chain.status != verify.DISCREPANCY
        and _record(
            chain, "second-order form of the chain (times -2*p)"
        ).difference == "0"
        and _record(chain, "q-side chain outcome").difference == "0"
        and classical.difference == "0"
    )
    assert _verdict(
        4, "gauge conjugation audited; p-chain and q-chain close; hbar -> 0 "
        "limit equals the classical half-coefficient equation exactly",
        ok, f"gauge={gauge.status}, chain={chain.status}",
    )


def test_criterion_5_comparison_difference_proportional_to_linear_term():
    rep = verify.run("qp34-comparison")
    ok = (
        rep.status == verify.VERIFIED
        and _record(
            rep, "printed target minus the hbar^2 variant"
        ).difference == "0"
        and _record(
            rep, "printed target minus the hbar/2 variant"
        ).difference == "0"
    )
    assert _verdict(
        5, "the printed second-order variants differ exactly by terms "
        "proportional to p", ok, f"status={rep.status}",
    )


def test_criterion_6_numeric_closed_form_oracles():
    t0 = time.monotonic()
    tr = numeric.integrate(
        numeric.ODEProblem("pii", alpha=1.0, u0=1.0, du0=-1.0)
    )
    err1 = float(np.max(np.abs(tr.u[:, 0, 0] - 1.0 / tr.grid)))
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    tr0 = numeric.integrate(
        numeric.ODEProblem("pii", alpha=0.0, u0=0.0, du0=0.0)
    )
    err0 = float(np.max(np.abs(tr0.u)))
    t2 = time.monotonic() - t0
    ok = err1 < 1e-8 and t1 < 1.0 and err0 < 1e-12 and t2 < 1.0
    assert _verdict(
        6, "alpha = 1 trajectory matches u = 1/z on [1, 5]; alpha = 0 "
        "stays zero",
        ok, f"err(alpha=1)={err1:.2e}, err(alpha=0)={err0:.2e}, "
        f"{t1:.2f}s/{t2:.2f}s",
    )


def test_criterion_7_solution_map_pairing_check():
    t0 = time.monotonic()
    generic = numeric.p34_map_check(0.7, (0.3, -0.2))
    closed1 = numeric.p34_map_check(1.0, (1.0, -1.0))
    closed0 = numeric.p34_map_check(0.0, (0.0, 0.0))
    elapsed = time.monotonic() - t0
    win = generic["residual_q" if generic["winner"] == "q" else "residual_r"]
    lose = generic["residual_r" if generic["winner"] == "q" else "residual_q"]
    ok = (
        win < 1e-6 and lose > 1e-2
        and closed1["residual_q"] < 1e-6
        and closed0["residual_q"] < 1e-6
        and bool(closed0["coincident_pairings"])
        and elapsed < 5.0
    )
    assert _verdict(
        7, "map check: winning pairing < 1e-6, losing pairing > 1e-2, "
        "closed-form cases pass",
        ok, f"win={win:.2e}, lose={lose:.2e}, {elapsed:.2f}s",
    )


def test_criterion_8_kernel_property_suites(oracle_suites):
    counts = [oracle_suites.cases(name) for name in oracles.SUITES]
    elapsed = oracle_suites.elapsed
    ok = all(c == 1000 for c in counts) and elapsed < 30.0
    assert _verdict(
        8, "parser round-trip, Leibniz, ideal soundness, commutator "
        "antisymmetry, scalarize homomorphism: exactly 1000 cases each",
        ok, f"{sum(counts)} cases total, {elapsed:.2f}s",
    )


def test_criterion_9_every_negative_control_exits_one(capsys):
    failures = []
    for case in verify.CASES:
        code = cli.main(["verify", "--case", case, "--negative-control"])
        if code != 1:
            failures.append((case, code))
    capsys.readouterr()  # drop the buffered reports
    ok = not failures
    assert _verdict(
        9, "all 13 mutated-twin pipelines exit 1 through the CLI",
        ok, f"failures={failures}" if failures else "13/13",
    )
