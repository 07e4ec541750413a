"""Catalog tests: registry shape, reproducible builds, one build per key
within one command, and the cross-entry identities the catalog is
expected to satisfy."""

import pytest

from laxlab import catalog, cli, verify
from laxlab.catalog import CatalogError
from laxlab.laxmat import Mat2
from laxlab.ncexpr import NCExpr, parse


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
# one build per key within one command
# ---------------------------------------------------------------------------
def _record_builds(monkeypatch):
    """Record the key of every ``_Entry.make`` call and every value
    ``build`` returns."""
    makes, values = [], []
    for key, entry in catalog._SPECS.items():
        def recording_make(key=key, make=entry.make):
            makes.append(key)
            return make()

        monkeypatch.setitem(catalog._SPECS, key,
                            entry._replace(make=recording_make))
    build = catalog.build

    def recording_build(key):
        value = build(key)
        values.append(value)
        return value

    monkeypatch.setattr(catalog, "build", recording_build)
    return makes, values


_ONE_BUILD_COMMANDS = {
    **{f"verify-{case}": (["verify", "--case", case], 0)
       for case in verify.CASES},
    **{f"verify-{case}-negative":
       (["verify", "--case", case, "--negative-control"], 1)
       for case in verify.CASES},
    "derive": (["derive", "p34"], 0),
    "reduce-key": (["reduce", "qpii-pair", "--v-du"], 0),
    "catalog-show": (["catalog", "show", "qpii-pair"], 0),
}


@pytest.mark.parametrize("argv, code", _ONE_BUILD_COMMANDS.values(),
                         ids=_ONE_BUILD_COMMANDS.keys())
def test_one_command_builds_each_entry_once(argv, code, monkeypatch, capsys):
    makes, _ = _record_builds(monkeypatch)
    assert cli.main(argv) == code
    assert len(makes) == len(set(makes))


def test_commands_share_no_catalog_value(monkeypatch, capsys):
    makes, values = _record_builds(monkeypatch)
    assert cli.main(["verify", "--case", "prop31"]) == 0
    first_makes, first_values = len(makes), list(values)
    assert cli.main(["verify", "--case", "prop31"]) == 0
    assert len(makes) == 2 * first_makes > 0
    assert not {id(v) for v in first_values} & {
        id(v) for v in values[len(first_values):]}

