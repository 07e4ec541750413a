"""Matrix-layer tests: 2x2 algebra, residuals, extraction, gauge moves."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from laxlab.ncexpr import (
    LaxlabError,
    NCExpr,
    QQi,
    builtin_ruleset,
    parse,
)
from laxlab.laxmat import (
    GaugeError,
    Mat2,
    ProvenanceItem,
    extract_equations,
    gauge_transform,
    mat_commutator,
    zero_curvature_residual,
)

import _oracles as oracles


def P(text: str) -> NCExpr:
    return parse(text)


def _exprs(seed):
    rng = random.Random(seed)
    return oracles.random_expr(rng, gens=("z", "u", "v"), max_terms=2,
                               max_len=2, max_order=1)


_mat = st.builds(
    lambda a, b, c, d: Mat2([_exprs(a), _exprs(b), _exprs(c), _exprs(d)]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
)


# ---------------------------------------------------------------------------
# ring axioms (randomized)
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(_mat, _mat, _mat)
def test_matrix_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    ident = Mat2.identity()
    assert a * ident == a and ident * a == a


@settings(max_examples=100, deadline=None)
@given(_mat, _mat)
def test_matrix_derivative_leibniz(a, b):
    assert (a * b).d_dz() == a.d_dz() * b + a * b.d_dz()
    assert (a * b).d_dlambda() == a.d_dlambda() * b + a * b.d_dlambda()


@settings(max_examples=100, deadline=None)
@given(_mat, _mat)
def test_mat_commutator_antisymmetric(a, b):
    assert mat_commutator(a, b) == -(mat_commutator(b, a))
    assert mat_commutator(a, a).is_zero


@settings(max_examples=100, deadline=None)
@given(_mat)
def test_pauli_round_trip(m):
    comps = m.pauli_decompose()
    assert set(comps) == {"I", "s1", "s2", "s3"}
    assert Mat2.from_pauli(comps) == m


# ---------------------------------------------------------------------------
# construction and basic structure
# ---------------------------------------------------------------------------
def test_entry_layout_row_major():
    m = Mat2([P("1"), P("2"), P("3"), P("4")])
    assert [str(e) for e in m.entries] == ["1", "2", "3", "4"]


def test_pauli_basis_matrices():
    s1, s2, s3 = (Mat2.from_pauli({name: P("1")})
                  for name in ("s1", "s2", "s3"))
    i = NCExpr.imag_unit()
    # s1*s2 = i*s3 and cyclic
    assert s1 * s2 == s3.map(lambda e: i * e)
    assert s2 * s3 == s1.map(lambda e: i * e)
    assert s3 * s1 == s2.map(lambda e: i * e)
    # nilpotent ladder slots
    ip = Mat2.from_pauli({"Ip": P("1")})
    im = Mat2.from_pauli({"Im": P("1")})
    assert [str(e) for e in ip.entries] == ["0", "1", "0", "0"]
    assert [str(e) for e in im.entries] == ["0", "0", "-1", "0"]
    with pytest.raises(LaxlabError):
        Mat2.from_pauli({"s4": P("1")})


def test_diag_and_zero():
    d = Mat2.from_pauli({"I": P("(1/2)*(u + v)"), "s3": P("(1/2)*(u - v)")})
    assert [str(e) for e in d.entries] == ["u", "0", "0", "v"]
    assert Mat2.from_pauli({}).is_zero
    assert not d.is_zero


def test_map_substitute_classical_scalarize():
    m = Mat2([P("hbar*u + v"), P("z"), P("0"), P("u'")])
    assert m.substitute({"v": P("u'")}).entries[0] == P("hbar*u + u'")
    assert m.classical_limit().entries[0] == P("v")
    ms = Mat2([P("u'*u"), P("0"), P("0"), P("0")]).scalarize()
    assert ms.entries[0] == P("u*u'")


def test_normalize_entrywise():
    rs = builtin_ruleset("inverse-pq")
    m = Mat2([P("p*p^-1"), P("0"), P("0"), P("q^-1*q")])
    assert m.normalize(rs) == Mat2.identity()


# ---------------------------------------------------------------------------
# residual and extraction
# ---------------------------------------------------------------------------
def test_zero_curvature_residual_convention():
    # entries built from one letter so [P, Q] vanishes identically
    p = Mat2([P("lam*u"), P("0"), P("0"), P("lam*u")])
    q = Mat2([P("u"), P("0"), P("0"), P("u")])
    r = zero_curvature_residual(p, q)
    # orientation: Q_z - P_lambda - [P, Q]
    assert r == Mat2([P("u' - u"), P("0"), P("0"), P("u' - u")])


def test_residual_accepts_rules_and_budget():
    rs = builtin_ruleset("inverse-pq")
    p = Mat2([P("p*p^-1*u"), P("0"), P("0"), P("u")])
    q = Mat2.identity().map(lambda e: e * P("lam"))
    r = zero_curvature_residual(p, q, rules=rs)
    plain = zero_curvature_residual(
        Mat2([P("u"), P("0"), P("0"), P("u")]), q
    )
    assert r == plain


def test_extraction_deterministic_and_canonical():
    pair_p = Mat2([P("-i*lam + 4*v"), P("u"), P("u"), P("i*lam + 4*v")])
    pair_q_entries = [
        P("-4*i*lam^2 - i*z - 2*i*u*u"),
        P("-lam^-1*alpha + hbar + 4*lam*u + 2*i*u'"),
        P("-lam^-1*alpha - hbar + 4*lam*u - 2*i*u'"),
        P("4*i*lam^2 + i*z + 2*i*u*u"),
    ]
    pair_q = Mat2(pair_q_entries)
    r = zero_curvature_residual(pair_p, pair_q)
    eqs1 = extract_equations(r, label="x")
    eqs2 = extract_equations(r, label="x")
    assert [str(e.lhs) for e in eqs1] == [str(e.lhs) for e in eqs2]
    assert [e.describe_provenance() for e in eqs1] == [
        e.describe_provenance() for e in eqs2
    ]
    # extraction output is canonical: leading scale one per equation
    for eq in eqs1:
        assert str(eq.lhs.canonical()) == str(eq.lhs)


def test_extraction_groups_matching_entries():
    # entries that agree up to scale must merge into one equation with
    # two provenance items
    m = Mat2([P("0"), P("2*i*[z,u]"), P("-4*i*[z,u]"), P("0")])
    eqs = extract_equations(m, label="pair")
    assert len(eqs) == 1
    assert len(eqs[0].provenance) == 2
    desc = eqs[0].describe_provenance()
    assert desc.startswith("pair: entry 12")
    assert "entry 21" in desc


def test_extraction_splits_lambda_powers():
    m = Mat2([P("lam*u + z"), P("0"), P("0"), P("0")])
    eqs = extract_equations(m)
    assert len(eqs) == 2
    powers = sorted(eq.provenance[0].lam_power for eq in eqs)
    assert powers == [0, 1]


def test_trivially_satisfied():
    m = Mat2([P("0"), P("u - u"), P("0"), P("0")])
    eqs = extract_equations(m)
    assert eqs == [] or all(eq.lhs.is_zero for eq in eqs)
    nontrivial = extract_equations(Mat2([P("u"), P("0"), P("0"), P("0")]))
    assert len(nontrivial) == 1
    assert not nontrivial[0].lhs.is_zero


def test_provenance_item_describe():
    item = ProvenanceItem("12", 0, QQi(0, -2))
    assert item.describe() == "entry 12, lam^0, scale -2*i"


def test_equation_is_frozen():
    eqs = extract_equations(Mat2([P("u"), P("0"), P("0"), P("0")]), label="t")
    with pytest.raises(AttributeError):
        eqs[0].lhs = P("z")


# ---------------------------------------------------------------------------
# gauge moves
# ---------------------------------------------------------------------------
def _const_gauge():
    one = NCExpr.one()
    mi = NCExpr.imag_unit()
    g = Mat2([one, -mi, -mi, one])
    g_inv = Mat2([one / 2, mi / 2, mi / 2, one / 2])
    return g, g_inv


def test_gauge_transform_requires_kind():
    g, g_inv = _const_gauge()
    m = Mat2([P("u"), P("0"), P("0"), P("u")])
    with pytest.raises(TypeError):
        gauge_transform(m, g, g_inv)  # kind is mandatory


def test_gauge_transform_validates_inverse():
    g, g_inv = _const_gauge()
    bad = Mat2([g_inv.entries[0] + NCExpr.one()] + list(g_inv.entries[1:]))
    m = Mat2([P("u"), P("0"), P("0"), P("u")])
    for kind in ("z-part", "lambda-part"):
        with pytest.raises(GaugeError):
            gauge_transform(m, g, bad, kind=kind)


def test_gauge_transform_constant_matrix_is_conjugation():
    g, g_inv = _const_gauge()
    m = Mat2([P("u"), P("v"), P("z"), P("u'")])
    for kind in ("z-part", "lambda-part"):
        assert gauge_transform(m, g, g_inv, kind=kind) == g * m * g_inv


def test_gauge_covariance_of_residual():
    g, g_inv = _const_gauge()
    p = Mat2([P("-i*lam + 4*v"), P("u"), P("u"), P("i*lam + 4*v")])
    q = Mat2([
        P("-4*i*lam^2 - i*z - 2*i*u*u"),
        P("-lam^-1*alpha + hbar + 4*lam*u + 2*i*u'"),
        P("-lam^-1*alpha - hbar + 4*lam*u - 2*i*u'"),
        P("4*i*lam^2 + i*z + 2*i*u*u"),
    ])
    pt = gauge_transform(p, g, g_inv, kind="z-part")
    qt = gauge_transform(q, g, g_inv, kind="lambda-part")
    assert zero_curvature_residual(pt, qt) == (
        g * zero_curvature_residual(p, q) * g_inv
    )
