"""Catalog tests: registry shape, reproducible builds, parameter binding,
and the cross-entry identities the catalog is expected to satisfy."""

from fractions import Fraction

import pytest

from laxlab import catalog, cli
from laxlab.catalog import CatalogError
from laxlab.laxmat import Mat2
from laxlab.ncexpr import NCExpr, QQi, parse


def P(text: str) -> NCExpr:
    return parse(text)


def test_keys_match_manifest_exactly():
    keys = catalog.keys()
    assert len(keys) == 46
    assert len(set(keys)) == len(keys)


def test_every_entry_builds_and_rebuilds_equal():
    for key in catalog.keys():
        first = catalog.build(key)
        second = catalog.build(key)
        assert type(first) is type(second), key
        assert first == second, key
        assert first is not second, key


def test_describe_fields():
    for key in catalog.keys():
        info = catalog.describe(key)
        assert set(info) == {"kind", "citation", "params"}
        assert info["kind"] in {"pair", "gauge", "target", "system"}
        assert info["citation"]


def test_unknown_key_rejected():
    with pytest.raises(CatalogError):
        catalog.build("not-a-key")
    with pytest.raises(CatalogError):
        catalog.describe("not-a-key")


def test_unknown_param_rejected():
    with pytest.raises(CatalogError):
        catalog.build("pii-classical", alpha=1)
    with pytest.raises(CatalogError):
        catalog.build("qpii-pair", beta=1)


def test_alpha_binding_on_pairs():
    bound = catalog.build("qpii-pair", alpha=1)
    free = catalog.build("qpii-pair")
    assert all("alpha" not in str(e) for e in bound.q.entries)
    assert free.q != bound.q
    frac = catalog.build("qpii-pair", alpha=Fraction(1, 2))
    assert frac.q != bound.q


def test_non_rational_param_rejected():
    with pytest.raises(CatalogError):
        catalog.build("qpii-pair", alpha=0.5)


def test_pair_rules_fields():
    assert catalog.build("qpii-pair").rules == ("quantum-zv",)
    assert catalog.build("qpii-pair-asprinted").rules == ("quantum-zv",)
    assert catalog.build("gauge-pair-asprinted").rules == (
        "inverse-pq", "quantum-zv",
    )
    assert catalog.build("gauge-pair-derived").rules == ("quantum-zv",)
    assert catalog.build("fn-pair").rules == ()


def test_gauge_matrix_is_two_sided_inverse():
    gauge = catalog.build("gauge-G")
    ident = Mat2.identity()
    assert gauge.g * gauge.g_inv == ident
    assert gauge.g_inv * gauge.g == ident


def test_matrix_pii_target_parameters():
    free = catalog.build("matrix-pii-target")
    both = catalog.build("matrix-pii-target", alpha0=0, alpha1=1)
    assert free.lhs != both.lhs
    with pytest.raises(CatalogError):
        catalog.build("matrix-pii-target", alpha0=0)  # both or neither
    # alpha stands for alpha1 - alpha0
    signed = catalog.build("matrix-pii-target", alpha0=Fraction(1, 2),
                           alpha1=2)
    assert signed.lhs == P("u'' - 2*u^3 + z*u - 3/2")


def test_classical_limit_bridge():
    """The quantum second-order equation's commutative classical limit is
    exactly the classical equation (the -z*u convention)."""
    quantum = catalog.build("qmpii-target-asprinted").lhs
    classical = catalog.build("pii-classical").lhs
    reduced = quantum.classical_limit().scalarize()
    assert str(reduced.canonical()) == str(classical.canonical())


def test_derived_targets_differ_from_printed_by_frozen_conventions():
    printed = catalog.build("pii-classical").lhs
    derived = catalog.build("pii-classical-derived").lhs
    assert derived.canonical() - printed.canonical() == P("2*z*u")
    assert str(derived.reflect_z().canonical()) == str(printed.canonical())


def test_system_lengths():
    assert len(catalog.build("pii-symmetric").equations) == 3
    assert len(catalog.build("qmpii-system-asprinted").equations) == 2
    assert len(catalog.build("case-i-system").equations) == 2
    assert len(catalog.build("qspii-system-asprinted").equations) == 3
    assert len(catalog.build("qp34-defs").equations) == 2
    assert len(catalog.build("results-summary").equations) == 4
    assert len(catalog.build("comparison-target").equations) == 2


def test_dpii_first_integral_differentiates_to_flow():
    fi = catalog.build("dpii-first-integral").lhs
    flow = catalog.build("dpii-scalar").lhs
    assert str(fi.d_dz().scalarize()) == str(flow.scalarize())


def test_weyl_relations_entry_consistent_with_ruleset():
    from laxlab.ncexpr import builtin_ruleset, normalize

    rs = builtin_ruleset("weyl-pii")
    target = catalog.build("weyl-relations")
    for eq in target.equations:
        assert normalize(eq, rs).is_zero, eq


# ---------------------------------------------------------------------------
# one build per key and parameter value within one command
# ---------------------------------------------------------------------------
def _record_builds(monkeypatch):
    """Record every ``_Entry.make`` call and every value ``build`` returns."""
    makes, values = [], []
    make, build = catalog._Entry.make, catalog.build

    def recording_make(entry, alpha):
        makes.append((id(entry), alpha))
        return make(entry, alpha)

    def recording_build(key, **params):
        value = build(key, **params)
        values.append(value)
        return value

    monkeypatch.setattr(catalog._Entry, "make", recording_make)
    monkeypatch.setattr(catalog, "build", recording_build)
    return makes, values


def test_one_command_builds_each_entry_once(monkeypatch, capsys):
    makes, values = _record_builds(monkeypatch)
    assert cli.main(["verify", "--case", "all", "--format", "json"]) == 0
    assert len(makes) == len(set(makes)) > 0
    assert len(values) > len(makes)


def test_commands_share_no_catalog_value(monkeypatch, capsys):
    makes, values = _record_builds(monkeypatch)
    assert cli.main(["verify", "--case", "prop31"]) == 0
    first_makes, first_values = len(makes), list(values)
    assert cli.main(["verify", "--case", "prop31"]) == 0
    assert len(makes) == 2 * first_makes > 0
    assert not {id(v) for v in first_values} & {
        id(v) for v in values[len(first_values):]}


def test_shared_builds_block_scopes_the_sharing():
    with catalog.shared_builds():
        inside = catalog.build("qpii-pair", alpha=1)
        assert catalog.build("qpii-pair", alpha=1) is inside
        assert catalog.build("qpii-pair", alpha=QQi(1)) is inside
        assert catalog.build("qpii-pair") is not inside
    assert catalog.build("qpii-pair", alpha=1) is not inside
