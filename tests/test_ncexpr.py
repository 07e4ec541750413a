"""Kernel tests: exact arithmetic, parsing, calculus, rewriting.

The five randomized property suites live in ``_oracles``; each runs exactly
1000 cases once per pytest run (the ``oracle_suites`` fixture), shared
with the acceptance gate.
"""

import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laxlab import ncexpr
from laxlab.ncexpr import (
    BUILTIN_RULESET_NAMES,
    Atom,
    ContextError,
    LaxlabError,
    NCExpr,
    ParseError,
    PassBudgetExhausted,
    QQi,
    Rule,
    RuleError,
    RuleSet,
    GENERATORS,
    INVERTIBLE,
    Scalar,
    anticommutator,
    builtin_ruleset,
    combine_rulesets,
    commutator,
    normalize,
    parse,
    _atom_texts,
    _format_term,
    _z_tower,
)

import _oracles as oracles
from _qqi_reference import RefQQi, format_coefficient


def P(text: str) -> NCExpr:
    return parse(text)


# ---------------------------------------------------------------------------
# randomized property suites (acceptance criterion: 1000 cases each)
# ---------------------------------------------------------------------------
def test_property_parser_round_trip(oracle_suites):
    assert oracle_suites.cases("parser round-trip") == 1000


def test_property_leibniz(oracle_suites):
    assert oracle_suites.cases("Leibniz") == 1000


def test_property_ideal_soundness(oracle_suites):
    assert oracle_suites.cases("ideal soundness") == 1000


def test_property_commutator_antisymmetry(oracle_suites):
    assert oracle_suites.cases("commutator antisymmetry") == 1000


def test_property_scalarize_homomorphism(oracle_suites):
    assert oracle_suites.cases("scalarize homomorphism") == 1000


# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("module", ["laxlab", "laxlab.ncexpr", "laxlab.laxmat"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# ---------------------------------------------------------------------------
# exact scalar arithmetic
# ---------------------------------------------------------------------------
def test_gaussian_rational_arithmetic():
    a = QQi(Fraction(1, 2), Fraction(-1, 3))
    b = QQi(0, 1)
    assert (a * b).re == Fraction(1, 3) and (a * b).im == Fraction(1, 2)
    assert P("(1/2 - (1/3)*i) * i") == NCExpr.scalar(a * b)
    assert P("i*i") == P("-1")
    assert P("i*i*i*i") == P("1")


@st.composite
def _fractions(draw):
    """Every Fraction with denominator at most 12 and magnitude at most 50,
    the values of st.fractions(-50, 50, max_denominator=12), drawn as a
    denominator and a numerator: st.fractions draws far more slowly."""
    d = draw(st.integers(1, 12))
    return Fraction(draw(st.integers(-50 * d, 50 * d)), d)


_PARTS = st.one_of(st.just(Fraction(0)), _fractions())
_QQIS = st.builds(QQi, _PARTS, _PARTS)


@settings(max_examples=500, deadline=None)
@given(_QQIS, _QQIS)
def test_property_qqi_fast_paths_match_full_formula(x, y):
    a, b, c, d = x.re, x.im, y.re, y.im
    for got, re, im in (
        (x * y, a * c - b * d, a * d + b * c),
        (x + y, a + c, b + d),
        (x - y, a - c, b - d),
        (-x, -a, -b),
    ):
        assert (got.re, got.im) == (re, im)
        assert type(got.re) is Fraction and type(got.im) is Fraction


_ORACLE_PARTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    _fractions(),
)
_REALS = st.one_of(st.integers(-6, 6), _ORACLE_PARTS)


def _assert_matches_reference(got, want):
    """``got`` is a kernel QQi in reduced form with the value of ``want``."""
    assert isinstance(got, QQi)
    a, b, d = got.a, got.b, got.d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)
    assert str(got) == str(want)
    assert bool(got) == bool(want)


def _both(fn):
    """``fn`` applied to the kernel and the reference operands, or the
    exception type each raised."""
    out = []
    for side in (0, 1):
        try:
            out.append(fn(side))
        except ZeroDivisionError as exc:
            out.append(type(exc))
    return out


@settings(max_examples=200, deadline=None)
@given(_ORACLE_PARTS, _ORACLE_PARTS, _ORACLE_PARTS, _ORACLE_PARTS, _REALS)
def test_property_qqi_matches_fraction_reference(xr, xi, yr, yi, k):
    xs = (QQi(xr, xi), RefQQi(xr, xi))
    ys = (QQi(yr, yi), RefQQi(yr, yi))
    _assert_matches_reference(xs[0], xs[1])
    binary = (
        lambda s: xs[s] + ys[s],
        lambda s: xs[s] - ys[s],
        lambda s: xs[s] * ys[s],
        lambda s: xs[s] / ys[s],
        lambda s: ys[s].inverse(),
        lambda s: -xs[s],
        lambda s: k + xs[s],
        lambda s: k - xs[s],
        lambda s: k * xs[s],
        lambda s: k / xs[s],
        lambda s: xs[s] + k,
        lambda s: xs[s] - k,
        lambda s: xs[s] * k,
        lambda s: xs[s] / k,
    )
    for fn in binary:
        got, want = _both(fn)
        if want is ZeroDivisionError:
            assert got is ZeroDivisionError
        else:
            _assert_matches_reference(got, want)
    assert (xs[0] == ys[0]) == (xs[1] == ys[1])
    assert (xs[0] == k) == (xs[1] == k)
    # one value, one representation: equal values built by different
    # routes hash equal
    for u, v in ((xs[0], ys[0]), ((xs[0] + ys[0]) - ys[0], xs[0]),
                 (xs[0] * ys[0], ys[0] * xs[0]), (QQi(k), k + QQi(0))):
        if u == v:
            assert hash(u) == hash(v)


def test_qqi_printers_match_fraction_reference():
    values = [Fraction(n, d) for n in (-3, -2, -1, 0, 1, 2, 3)
              for d in (1, 2, 3, 4)]
    cases = [(QQi(re, im), RefQQi(re, im)) for re in values for im in values]
    for got, want in cases:
        assert str(got) == str(want)
        assert repr(got) == repr(want).replace("RefQQi", "QQi")
        if not got:
            continue
        for word, key, tail in (((), (0, 0, 0), []),
                                ((Atom("u"),), (0, 1, 0), ["hbar", "u"])):
            assert _format_term(key, got, _atom_texts(word)) == \
                format_coefficient(want, tail)


def test_scalar_macros():
    assert P("beta") == P("(i/4)*hbar")
    assert P("delta") == P("alpha - 1/2")
    assert P("beta^2") == P("-(1/16)*hbar^2")


def test_laurent_spectral_powers():
    e = P("lam^-1 * lam")
    assert e == NCExpr.one()
    assert P("lam^-2*alpha").d_dlambda() == P("-2*lam^-3*alpha")


def test_integer_division():
    assert P("u + z") / 2 == P("(1/2)*u + (1/2)*z")
    assert (P("3*u") / 3) == P("u")


def test_scalar_mul():
    e = P("2*i*u - 4*i*v")
    assert e.scalar_mul(QQi(0, Fraction(-1, 2))) == P("u - 2*v")


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------
def test_parse_bracket_macros():
    assert P("[z,u]") == P("z*u - u*z")
    assert P("[z,u]_-") == P("[z,u]")
    assert P("[z,u]_+") == P("z*u + u*z")
    assert P("[v,u']_-") == P("v*u' - u'*v")


def test_parse_derivative_primes():
    e = P("u'''")
    assert e == NCExpr.gen("u", 3)
    assert P("z'") == NCExpr.one()


def test_parse_inverse_atoms():
    assert P("p^-1*p") != NCExpr.one()  # free algebra: no relation yet
    assert normalize(P("p^-1*p"), builtin_ruleset("inverse-pq")) == P("1")


def test_parse_errors():
    for text in ("u +* z", "((u)", "u^", "[z,u", "2//3", ""):
        with pytest.raises(ParseError):
            P(text)


@pytest.mark.parametrize("text, message, pos", [
    ("u + é", "unexpected character", 4),
    ("2*u^ + v", "unexpected character", 3),
    ("[z,u]_ v", "unexpected character", 5),
    ("(u + (v)", "expected ')'", 8),
    ("[z, u", "expected ']'", 5),
    ("[z u]", "expected ','", 3),
    ("u +* z", "expected a factor", 3),
    ("", "expected a factor", 0),
    ("u + v w", "trailing input", 6),
    ("i^2", "trailing input", 1),
    ("u + 2*w", "undeclared generator 'w'", 6),
    ("u + hbar^-1", "hbar admits only non-negative exponents", 4),
    ("alpha^-2*u", "alpha admits only non-negative exponents", 0),
    ("u*beta^-1", "macros admit only non-negative exponents", 2),
    ("u - delta^-3", "macros admit only non-negative exponents", 4),
    ("2*u^-1", "generator 'u' is not declared invertible", 2),
    ("v*p'^-1", "negative powers apply only to underived generators", 2),
    ("u/v", "division only by central scalars", 2),
    ("u / (1+lam)", "division only by a single central monomial", 4),
    ("u/alpha^2", "division by hbar or alpha is not representable", 2),
    ("u/0", "division by zero", 2),
    ("u + v/(1 - 1)", "division by zero", 6),
    # past the interpreter's limit on integer string conversion
    pytest.param("1" * 5000, "integer has too many digits", 0,
                 id="5000-digit-integer"),
    pytest.param("u^" + "1" * 5000, "integer has too many digits", 1,
                 id="5000-digit-exponent"),
])
def test_parse_error_text_and_position(text, message, pos):
    with pytest.raises(ParseError) as info:
        P(text)
    assert info.value.pos == pos
    assert str(info.value) == (
        f"{message} (at position {pos}, near {text[pos:pos + 16]!r})")


def test_parse_error_for_deep_nesting():
    depth = 5000
    text = "(" * depth + "u" + ")" * depth
    with pytest.raises(ParseError) as info:
        P(text)
    pos = info.value.pos
    assert 0 < pos <= depth
    assert str(info.value) == (
        f"expression nested too deeply (at position {pos}, "
        f"near {text[pos:pos + 16]!r})")


def test_unknown_generator_rejected():
    with pytest.raises((ParseError, ContextError)):
        P("w + u")


def test_non_invertible_generator_rejected():
    with pytest.raises((ParseError, ContextError)):
        P("u^-1")


@pytest.mark.parametrize("atom", [
    Atom("u", 0, True),   # u has no inverse
    Atom("x"),            # not a generator
    Atom("u", -1),        # negative derivative order
    Atom("p", 1, True),   # inverse atoms carry order 0
])
def test_constructor_rejects_illegal_atoms(atom):
    with pytest.raises(ContextError):
        NCExpr({(atom,): 1})
    with pytest.raises(ContextError):
        NCExpr({(Atom("z"), atom): 1})


def test_string_round_trip_of_display_forms():
    for text in (
        "alpha - u'' + (1/2)*[z,u]_+ - 4*[u',v] - 2*u^3",
        "-lam^-1*alpha + hbar + 4*lam*u + 2*i*u'",
        "(1/2)*i*hbar*u + 2*u'*v - 2*v*u'",
        "p'*p^-1 + delta*p^-1",
    ):
        e = P(text)
        assert parse(str(e)) == e


def _central(l=0, h=0, a=0, c=QQi(1)) -> NCExpr:
    return NCExpr({(): Scalar({(l, h, a): c})})


class GrammarTexts:
    """Random expression trees over the whole parser grammar.

    Each method returns ``(text, value)``: the tree printed as parser input,
    with random whitespace between tokens, and its value built with
    ``NCExpr`` arithmetic, without the parser.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def gap(self) -> str:
        return self.rng.choice(("", "", "", " ", "  ", "\t"))

    def expr(self, depth: int):
        rng, gap = self.rng, self.gap
        sign = text = rng.choice(("", "", "+", "-"))
        value = NCExpr.zero()
        for k in range(rng.randint(1, 3)):
            if k:
                sign = rng.choice("+-")
                text += gap() + sign + gap()
            term_text, term = self.term(depth)
            text += term_text
            value = value - term if sign == "-" else value + term
        return text, value

    def term(self, depth: int):
        rng, gap = self.rng, self.gap
        text, value = self.factor(depth)
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            if rng.random() < 0.7:
                factor_text, factor = self.factor(depth)
                text += gap() + "*" + gap() + factor_text
                value = value * factor
            else:
                divisor_text, l, c = self.divisor()
                text += gap() + "/" + gap() + divisor_text
                value = value * _central(l=-l, c=c.inverse())
        return text, value

    def divisor(self):
        """Text of a central monomial, with its lam exponent and QQi."""
        rng = self.rng
        n, m, l = rng.randint(1, 9), rng.randint(1, 9), rng.randint(-2, 2)
        return rng.choice((
            (str(n), 0, QQi(n)),
            ("i", 0, QQi(0, 1)),
            (f"lam^{l}", l, QQi(1)),
            (f"({n}*lam^{l})", l, QQi(n)),
            (f"(-{n}*i)", 0, QQi(0, -n)),
            (f"({n}/{m})", 0, QQi(Fraction(n, m))),
        ))

    def factor(self, depth: int):
        rng, gap = self.rng, self.gap
        kinds = ["int", "i", "central", "macro", "gen", "gen", "gen"]
        if depth:
            kinds += ["paren", "bracket"]
        kind = rng.choice(kinds)
        if kind == "int":
            n = rng.randint(0, 12)
            return str(n), NCExpr.scalar(n)
        if kind == "i":
            return "i", NCExpr.imag_unit()
        if kind == "central":
            name = rng.choice(("lam", "hbar", "alpha"))
            k = rng.choice((None, 0, 1, 2, 3) + ((-1, -3) if name == "lam" else ()))
            power = 1 if k is None else k
            value = _central(**{name[0]: power})
            return name + ("" if k is None else f"^{k}"), value
        if kind == "macro":
            name = rng.choice(("beta", "delta"))
            k = rng.choice((None, 0, 1, 2, 3))
            if name == "beta":
                base = NCExpr.imag_unit() * NCExpr.hbar() / 4
            else:
                base = _central(a=1) - Fraction(1, 2)
            value = base if k is None else base ** k
            return name + ("" if k is None else f"^{k}"), value
        if kind == "gen":
            name = rng.choice(GENERATORS)
            order = rng.choice((0, 0, 0, 1, 2))
            if name in INVERTIBLE and order == 0 and rng.random() < 0.3:
                k = rng.randint(1, 2)
                return f"{name}^-{k}", NCExpr.gen(name, 0, True) ** k
            k = rng.choice((None, None, 0, 1, 2))
            value = NCExpr.gen(name, order) ** (1 if k is None else k)
            return name + "'" * order + ("" if k is None else f"^{k}"), value
        if kind == "paren":
            inner_text, inner = self.expr(depth - 1)
            return "(" + gap() + inner_text + gap() + ")", inner
        left_text, left = self.expr(depth - 1)
        right_text, right = self.expr(depth - 1)
        subscript = rng.choice(("", "_-", "_+"))
        text = ("[" + gap() + left_text + gap() + "," + gap() + right_text
                + gap() + "]" + subscript)
        if subscript == "_+":
            return text, anticommutator(left, right)
        return text, commutator(left, right)


def test_grammar_generated_texts_parse_to_their_trees():
    gen = GrammarTexts(random.Random(1313))
    for _ in range(500):
        text, value = gen.expr(depth=2)
        assert parse(text) == value, text


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------
def test_d_dz_basics():
    assert P("z*u").d_dz() == P("u + z*u'")
    assert P("[z,u]").d_dz() == P("[z,u']")
    assert P("u^3").d_dz() == P("u'*u*u + u*u'*u + u*u*u'")


def test_d_dz_inverse_letter():
    assert P("p^-1").d_dz() == P("-p^-1*p'*p^-1")
    # d(p * p^-1) = p'*p^-1 - p*p^-1*p'*p^-1: free until the inverse
    # relations are imposed, zero afterwards
    deriv = P("p*p^-1").d_dz()
    assert not deriv.is_zero
    assert normalize(deriv, builtin_ruleset("inverse-pq")).is_zero


def test_d_dlambda_ignores_letters():
    assert P("lam*u + z").d_dlambda() == P("u")
    assert P("lam^2*hbar*v").d_dlambda() == P("2*lam*hbar*v")


_ORDERS = oracles.RULE_ORDERS


def _rules_found(rs: RuleSet) -> dict:
    """The rule that ``rs`` applies to each pair of ``oracles.RULE_ATOMS``,
    by pattern; pairs without a rule are left out."""
    found = {}
    for pair in itertools.product(oracles.RULE_ATOMS, repeat=2):
        hit = rs.find(pair)
        if hit is not None:
            assert hit[0] == 0 and hit[1].pattern == pair
            found[pair] = hit[1]
    return found


def test_derivative_tower_covers_working_orders():
    rs = builtin_ruleset("quantum-zu")
    for k in _ORDERS:
        uk = NCExpr.gen("u", k)
        moved = normalize(uk * P("z"), rs)
        assert moved == P("z") * uk + P("(i/2)*hbar") * uk


def test_z_towers_equal_hand_written_rules():
    """quantum-zv, quantum-zu and the sign-flipped quantum-zu twin of the
    case-ii negative control hold exactly the rules
    x^(k)*z -> z*x^(k) +/- (i/2)*hbar*u^(k), k = 0, 1, 2, ..."""
    towers = (
        (builtin_ruleset("quantum-zv"), "quantum-zv", "v", "+"),
        (builtin_ruleset("quantum-zu"), "quantum-zu", "u", "+"),
        (_z_tower("quantum-zu-flipped", "u", -1), "quantum-zu-flipped", "u",
         "-"),
    )
    for rs, name, x, sign in towers:
        assert rs.name == name
        found = _rules_found(rs)
        assert list(found) == [(Atom(x, k), Atom("z")) for k in _ORDERS]
        for k, rule in zip(_ORDERS, found.values()):
            primes = "'" * k
            assert rule.replacement == P(
                f"z*{x}{primes} {sign} (i/2)*hbar*u{primes}")


def test_rule_families_reduce_above_order_eight():
    zu = builtin_ruleset("quantum-zu")
    got = normalize((P("u''''''''") * P("z")).d_dz(), zu)
    assert got == P("u'''''''' + z*u''''''''' + (i/2)*hbar*u'''''''''")
    assert all(zu.find(word) is None for word in got.terms)
    u9 = P("u'''''''''")
    assert normalize(u9 * P("z") - P("z") * u9, zu) == P("(i/2)*hbar") * u9
    v10, u12, u3 = NCExpr.gen("v", 10), NCExpr.gen("u", 12), P("u'''")
    assert normalize(v10 * u12, builtin_ruleset("commute-vu")) == u12 * v10
    assert normalize(u12 * u3, builtin_ruleset("commute-uu")) == u3 * u12


def test_find_keeps_the_rule_it_builds():
    rs = builtin_ruleset("commute-vu")
    word = (Atom("v", 10), Atom("u", 12))
    first = rs.find(word)
    assert first is not None and rs.find(word)[1] is first[1]
    assert rs.find((Atom("u"), Atom("v"))) is None
    assert rs.find((Atom("u"), Atom("v"))) is None


# ---------------------------------------------------------------------------
# substitution, limits, projections
# ---------------------------------------------------------------------------
def test_substitute_is_a_homomorphism():
    rng = random.Random(99)
    target = P("u^2 + u' + (1/2)*z")
    for _ in range(50):
        a = oracles.random_expr(rng, gens=("z", "u", "v"))
        b = oracles.random_expr(rng, gens=("z", "u", "v"))
        sub = {"v": target}
        assert (a * b).substitute(sub) == a.substitute(sub) * b.substitute(sub)
        assert (a + b).substitute(sub) == a.substitute(sub) + b.substitute(sub)


def test_substitute_derivative_orders_follow():
    assert P("v'").substitute({"v": P("u'")}) == P("u''")
    assert P("v''").substitute({"v": P("u^2")}) == P("u^2").d_dz().d_dz()


def test_classical_limit_kills_hbar_only():
    e = P("hbar*u + i*v + alpha*z")
    assert e.classical_limit() == P("i*v + alpha*z")
    assert P("hbar^2*p + hbar*q").classical_limit().is_zero


def test_split_lambda():
    e = P("lam^2*u + lam*(v + hbar) + z + lam^-1*alpha")
    parts = e.split_lambda()
    assert set(parts) == {-1, 0, 1, 2}
    assert parts[2] == P("u")
    assert parts[1] == P("v + hbar")
    assert parts[0] == P("z")
    assert parts[-1] == P("alpha")


def test_negate_alpha():
    e = P("alpha*u + z")
    assert e.negate_alpha() == P("-alpha*u + z")
    assert P("alpha^2*u").negate_alpha() == P("alpha^2*u")


def test_reflect_z():
    # odd total parity in (z, derivative order) flips sign
    assert P("z*u").reflect_z() == P("-z*u")
    assert P("u''").reflect_z() == P("u''")
    assert P("u'").reflect_z() == P("-u'")
    e = P("u'' - 2*u^3 + z*u - alpha")
    assert e.reflect_z() == P("u'' - 2*u^3 - z*u - alpha")


def test_scalarize_orders_and_cancels():
    assert P("u'*u").scalarize() == P("u*u'")
    assert P("[z,u]").scalarize().is_zero
    assert P("(1/2)*[z,u]_+").scalarize() == P("z*u")
    assert P("p*u*p^-1").scalarize() == P("u")


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------
def test_canonical_scale_invariance():
    e = P("2*i*u*v - 2*i*v*u + 4*i*z")
    f = e.scalar_mul(QQi(Fraction(-3, 2)))
    assert str(e.canonical()) == str(f.canonical())
    assert e.canonical_with_scale()[0] == f.canonical_with_scale()[0]


def test_canonical_of_zero():
    assert NCExpr.zero().canonical().is_zero


def test_min_word_and_coefficient():
    e = P("3*u*v + z")
    w = e.min_word()
    assert w == (Atom("z"),)
    assert e.terms[w] == P("1").terms[()]
    assert e.terms[(Atom("u"), Atom("v"))] == P("3").terms[()]
    assert (Atom("v"), Atom("v")) not in e.terms


def test_sorted_terms_deterministic():
    e = P("u*v + v*u + z^2 + i*u")
    assert e.sorted_terms() == e.sorted_terms()
    words = [w for w, _ in e.sorted_terms()]
    assert len(words) == len(set(words))


# ---------------------------------------------------------------------------
# rule sets and budgets
# ---------------------------------------------------------------------------
def test_builtin_ruleset_names_complete():
    assert set(BUILTIN_RULESET_NAMES) == {
        "quantum-zv", "quantum-zu", "inverse-pq", "commute-vu",
        "commute-uu", "weyl-pii",
    }
    for name in BUILTIN_RULESET_NAMES:
        assert builtin_ruleset(name).sources


def test_unknown_ruleset_rejected():
    with pytest.raises(LaxlabError):
        builtin_ruleset("no-such-rules")


def test_quantum_zv_relation():
    rs = builtin_ruleset("quantum-zv")
    assert normalize(P("[z,v] + (i/2)*hbar*u"), rs).is_zero


def test_quantum_zu_relation():
    rs = builtin_ruleset("quantum-zu")
    assert normalize(P("[z,u]"), rs) == P("-(i/2)*hbar*u")


def test_inverse_pq_two_sided():
    rs = builtin_ruleset("inverse-pq")
    for text in ("p*p^-1", "p^-1*p", "q*q^-1", "q^-1*q"):
        assert normalize(P(text), rs) == P("1")
    assert normalize(P("p*p^-1*p"), rs) == P("p")


def test_combine_rulesets():
    rs = combine_rulesets(
        "zv+inv", builtin_ruleset("quantum-zv"), builtin_ruleset("inverse-pq")
    )
    assert normalize(P("[z,v] + (i/2)*hbar*u + p*p^-1 - 1"), rs).is_zero


def _algebraic_rules(name: str) -> list:
    """The built-in rules of ``name`` on ``oracles.RULE_ATOMS``, written
    with generator arithmetic."""
    g, tower = NCExpr.gen, _ORDERS
    z, hbar = g("z"), NCExpr.hbar()
    if name in ("quantum-zv", "quantum-zu"):
        x, half = name[-1], P("i/2") * hbar
        return [Rule((Atom(x, k), Atom("z")), z * g(x, k) + half * g("u", k))
                for k in tower]
    if name == "commute-vu":
        return [Rule((Atom("v", j), Atom("u", k)), g("u", k) * g("v", j))
                for j in tower for k in tower]
    if name == "commute-uu":
        return [Rule((Atom("u", j), Atom("u", k)), g("u", k) * g("u", j))
                for j in tower for k in range(j)]
    if name == "inverse-pq":
        return [Rule(pair, NCExpr.one()) for n in "pqr"
                for pair in ((Atom(n), Atom(n, 0, True)),
                             (Atom(n, 0, True), Atom(n)))]
    u, q, r = g("u"), g("q"), g("r")
    return [Rule((Atom("r"), Atom("q")), q * r + 2 * hbar * u),
            Rule((Atom("q"), Atom("u")), u * q - hbar),
            Rule((Atom("r"), Atom("u")), u * r - hbar)]


@pytest.mark.parametrize("name", BUILTIN_RULESET_NAMES)
def test_builtin_rules_equal_their_algebraic_definitions(name):
    rs, want = builtin_ruleset(name), _algebraic_rules(name)
    if name in ("inverse-pq", "weyl-pii"):
        assert rs.sources == tuple(want)
    got = _rules_found(rs)
    assert got == {rule.pattern: rule for rule in want}
    for b in want:
        a = got[b.pattern]
        assert list(a.replacement.terms) == list(b.replacement.terms)
        assert [list(s.terms) for s in a.replacement.terms.values()] == \
            [list(s.terms) for s in b.replacement.terms.values()]


def test_rule_steps_mark_unit_coefficients():
    vu, zv = builtin_ruleset("commute-vu"), builtin_ruleset("quantum-zv")
    for k in (0, 12):
        u, v, z = Atom("u", k), Atom("v", k), Atom("z")
        assert list(vu.find((v, u))[1].steps) == [((u, v), None)]
        assert list(zv.find((v, z))[1].steps) == [
            ((z, v), None), ((u,), P("i/2*hbar").terms[()])]
    assert list(Rule((Atom("u"), Atom("z")), P("2*z*u")).steps) == [
        ((Atom("z"), Atom("u")), P("2").terms[()])]


def _explicit_pair():
    # the (z, u) pattern has an explicit rule in both sets
    return (RuleSet("zu", builtin_ruleset("quantum-zu").sources
                    + (Rule((Atom("z"), Atom("u")), P("2*u")),)),
            RuleSet("zv", builtin_ruleset("quantum-zv").sources
                    + (Rule((Atom("z"), Atom("u")), P("hbar*v")),)))


def _family_and_rule():
    # the (u^(3), z) pattern has a rule in the quantum-zu family and an
    # explicit one
    u3, z = NCExpr.gen("u", 3), NCExpr.gen("z")
    return (builtin_ruleset("quantum-zu"),
            RuleSet("u3z", (Rule((Atom("u", 3), Atom("z")), z * u3),)))


@pytest.mark.parametrize("make, first, shared", [
    (_explicit_pair, True, "z*u"), (_explicit_pair, False, "z*u"),
    (_family_and_rule, True, "u'''*z"), (_family_and_rule, False, "u'''*z"),
], ids=["zu-first", "zv-first", "family-first", "rule-first"])
def test_combine_rulesets_matches_concatenated_rules(make, first, shared):
    # the pattern ``shared`` is in both sets: the first registered rule wins
    sets = make() if first else make()[::-1]
    got = combine_rulesets("mixed", *sets)
    want = RuleSet("mixed", sets[0].sources + sets[1].sources)
    assert got.sources == want.sources
    for text in ("z*u", "z*v", "u*z", "v*u*z*u", "u''*z*z*v", "u'''*z",
                 "v*u'''*z"):
        word = P(text).min_word()
        assert got.find(word) == want.find(word)
    word = P(shared).min_word()
    assert got.find(word)[1] == sets[0].find(word)[1]
    assert got.find(word)[1] != sets[1].find(word)[1]


def test_normalize_unit_steps_leave_the_input_unchanged():
    e = P("(1 + hbar + lam)*v*u + (i - alpha)*v'*u'*v*u + 2*u*v*u''"
          " + (lam^-1 - 3*i*hbar)*v''*u*v")
    before = {w: dict(s.terms) for w, s in e.terms.items()}
    got = _assert_same_as_min_scan(e, builtin_ruleset("commute-vu"))
    assert {w: dict(s.terms) for w, s in e.terms.items()} == before
    assert got == P("(1 + hbar + lam)*u*v + (i - alpha)*u'*u*v'*v"
                    " + 2*u*u''*v + (lam^-1 - 3*i*hbar)*u*v''*v")


def _word_order_key(word: tuple) -> tuple:
    return (len(word),
            tuple((GENERATORS.index(a.gen), a.order, int(a.inv)) for a in word))


def _min_scan_normalize(e: NCExpr, rules: RuleSet, pick=min) -> NCExpr:
    """Reference normalizer: rescan the pending words for the smallest one
    (with ``pick=max``, the largest one) before every step."""
    pending, done = dict(e.terms), {}
    while pending:
        word = pick(pending, key=_word_order_key)
        scal = pending.pop(word)
        hit = rules.find(word)
        if hit is None:
            target, items = done, [(word, scal)]
        else:
            pos, rule = hit
            target = pending
            items = [(word[:pos] + rword + word[pos + 2:], scal * rscal)
                     for rword, rscal in rule.replacement.terms.items()]
        for w, s in items:
            total = target[w] + s if w in target else s
            if total:
                target[w] = total
            else:
                target.pop(w, None)
    return NCExpr(done)


class _RecordingRuleSet(RuleSet):
    """A rule set that records every word it is asked to match and counts
    the matches, that is the rule applications."""

    def __init__(self, base: RuleSet):
        super().__init__(base.name, base.sources)
        self.seen = []
        self.applications = 0

    def find(self, word):
        self.seen.append(word)
        hit = super().find(word)
        self.applications += hit is not None
        return hit


def _assert_same_as_min_scan(e: NCExpr, rules: RuleSet) -> NCExpr:
    """``normalize`` gives the smallest-first reference's result, and asks
    ``find`` about the words in the largest-first reference's order."""
    heap_run, scan_run = _RecordingRuleSet(rules), _RecordingRuleSet(rules)
    got = normalize(e, heap_run)
    assert got == _min_scan_normalize(e, rules)
    _min_scan_normalize(e, scan_run, pick=max)
    assert heap_run.seen == scan_run.seen
    return got


_ATOMS = st.sampled_from(
    [Atom("z")] + [Atom(g, k) for g in "uv" for k in range(3)]
    + [Atom(g) for g in "pqr"] + [Atom(g, 0, True) for g in "pq"]
)
_COEFFS = st.sampled_from(("1", "-1", "2", "-1/2", "i", "(1-i)", "hbar",
                           "i*hbar", "lam", "alpha"))
_SUMS = st.lists(
    st.tuples(_COEFFS, st.lists(_ATOMS, max_size=2).map(tuple)),
    min_size=1, max_size=4,
).map(lambda terms: NCExpr({w: P(c).terms[()] for c, w in terms}))
# Powers of a small sum contain words in several orders at once (u*z and
# z*u), so rewrites often land on words that are pending or already final.
_EXPRS = st.builds(lambda a, k, b: a ** k * b, _SUMS, st.integers(1, 3), _SUMS)


@settings(max_examples=300, deadline=None)
@given(_EXPRS, st.sampled_from(BUILTIN_RULESET_NAMES))
def test_property_normalize_matches_min_scan(e, name):
    _assert_same_as_min_scan(e, builtin_ruleset(name))


@settings(max_examples=300, deadline=None)
@given(_EXPRS, st.sampled_from(BUILTIN_RULESET_NAMES + ("zv+vu+uu",)))
def test_property_decreasing_sets_rewrite_each_word_once(e, name):
    rules = _zv_vu_uu() if name == "zv+vu+uu" else builtin_ruleset(name)
    run = _RecordingRuleSet(rules)
    normalize(e, run)
    assert len(set(run.seen)) == len(run.seen)


_MIXED_SUM = ("v*u*z + u*z*v*u' + 3*z*v*u*u'' - i*hbar*v'*z*u"
              " + 2*v*u'*z*u")


@pytest.mark.parametrize("names", [
    names for k in range(1, len(BUILTIN_RULESET_NAMES) + 1)
    for names in itertools.combinations(BUILTIN_RULESET_NAMES, k)
], ids="+".join)
def test_every_rule_subset_matches_min_scan(names):
    # 30 of these 63 subsets are not confluent, yet each word's one step
    # (leftmost position, first rule) is fixed, so the order in which words
    # are rewritten still cannot change the result
    rules = combine_rulesets("+".join(names),
                             *(builtin_ruleset(name) for name in names))
    e = P(_MIXED_SUM)
    assert normalize(e, rules) == _min_scan_normalize(e, rules)


_SIGNED_COEFFS = st.sampled_from(("1", "-1", "2", "-1/2", "i", "-i", "hbar",
                                  "-hbar", "(1 + hbar)", "(alpha - 1/2)",
                                  "-alpha", "lam", "lam^-1"))
# Built by addition, so equal words meet and their coefficients cancel in
# whole (u - u) or in part ((1 + hbar)*u - u).
_CANCELLING_SUMS = st.lists(
    st.tuples(_SIGNED_COEFFS, st.lists(_ATOMS, max_size=2).map(tuple)),
    min_size=1, max_size=5,
).map(lambda terms: sum((P(c) * NCExpr({w: 1}) for c, w in terms),
                        NCExpr.zero()))


def _assert_no_stored_zero(e: NCExpr) -> None:
    for scal in e.terms.values():
        assert scal.terms, "zero Scalar stored in NCExpr.terms"
        assert all(scal.terms.values()), "zero QQi stored in Scalar.terms"


@settings(max_examples=300, deadline=None)
@given(_CANCELLING_SUMS, _CANCELLING_SUMS,
       st.sampled_from(BUILTIN_RULESET_NAMES))
def test_property_no_zero_is_stored(e, f, name):
    rules = builtin_ruleset(name)
    assert (e - e).is_zero and (e * f - e * f).is_zero
    assert (e * f - f * e).scalarize().is_zero
    results = [
        e + f, e - f, e * f, e * f - f * e, e.d_dz(), (e * f).d_dz(),
        (e * f).scalarize(), (e * f).reflect_z(),
        *(e * f).split_lambda().values(),
        normalize(e * f, rules), normalize(e * f - f * e, rules),
        e.d_dlambda(), (e * f).classical_limit(), e.negate_alpha(),
        e.scalar_mul(0), NCExpr.scalar(0), NCExpr({(): 0}),
    ]
    for r in results:
        _assert_no_stored_zero(r)


def test_normalize_cancel_then_readd():
    # v*z cancels the pending u; u*z then adds it back.
    rules = combine_rulesets("zu+zv", builtin_ruleset("quantum-zu"),
                             builtin_ruleset("quantum-zv"))
    got = _assert_same_as_min_scan(P("u*z + v*z - (i/2)*hbar*u"), rules)
    assert got == P("z*u + z*v + (i/2)*hbar*u")


def test_normalize_repeated_final_word():
    # z*u and u are final before u*z rewrites into both of them again.
    rs = builtin_ruleset("quantum-zu")
    assert _assert_same_as_min_scan(
        P("u*z + 2*z*u + 3*u"), rs) == P("3*z*u + (3 + i/2*hbar)*u")
    assert _assert_same_as_min_scan(
        P("u*z - z*u - (i/2)*hbar*u"), rs).is_zero


def test_pass_budget_exhaustion(monkeypatch):
    # a budget of exactly the applications needed finishes, one less cannot
    run = _RecordingRuleSet(builtin_ruleset("quantum-zu"))
    e = P("u*z*u*z*u*z")
    want = normalize(e, run)
    monkeypatch.setattr(ncexpr, "PASS_BUDGET", run.applications - 1)
    with pytest.raises(PassBudgetExhausted):
        normalize(e, run)
    monkeypatch.setattr(ncexpr, "PASS_BUDGET", run.applications)
    assert normalize(e, run) == want


def test_pass_budget_error_names_word_and_counts(monkeypatch):
    rs = builtin_ruleset("quantum-zu")
    monkeypatch.setattr(ncexpr, "PASS_BUDGET", 1)
    with pytest.raises(PassBudgetExhausted) as info:
        normalize(P("u*z*u*z*u*z"), rs)
    err = info.value
    assert (err.ruleset, err.budget) == ("quantum-zu", 1)
    # u*z*u*z*u*z -> z*u*u*z*u*z + (i/2)*hbar*u*u*z*u*z; the larger
    # first word is next, and it would need a second application.
    assert err.word == P("z*u*u*z*u*z").min_word()
    assert (err.applications, err.pending) == (1, 1)
    assert str(err).startswith(
        "rewrite budget of 1 rule applications exhausted by rule set "
        "'quantum-zu' without reaching a normal form")
    assert "rewriting z*u*u*z*u*z after 1 applications with 1 more words " \
        "pending" in str(err)


def test_hand_built_ruleset():
    z = NCExpr.gen("z")
    u = NCExpr.gen("u")
    rs = RuleSet("swap-uz", (Rule((Atom("u"), Atom("z")), z * u),))
    assert normalize(P("u*z"), rs) == P("z*u")


def test_rule_rejects_replacement_that_reintroduces_its_pattern():
    with pytest.raises(RuleError) as info:
        Rule((Atom("u"), Atom("z")), P("z*u + 2*v*u*z"))
    assert str(info.value) == (
        "rule replacement word v*u*z is not smaller than its pattern u*z "
        "in the shortlex order")


@pytest.mark.parametrize("pattern, text, word", [
    ((Atom("z"), Atom("u")), "u*z", "u*z"),
    ((Atom("u"), Atom("z")), "z*u + u*z", "u*z"),
    ((Atom("u"), Atom("z")), "hbar*u*z*z", "u*z*z"),
], ids=["larger", "equal", "longer"])
def test_rule_rejects_replacement_not_smaller_than_pattern(pattern, text,
                                                           word):
    with pytest.raises(RuleError) as info:
        Rule(pattern, P(text))
    pat = "*".join(_atom_texts(pattern))
    assert str(info.value) == (
        f"rule replacement word {word} is not smaller than its pattern {pat} "
        "in the shortlex order")


@pytest.mark.parametrize("pattern, message", [
    ((Atom("w"), Atom("z")), "undeclared generator 'w'"),
    ((Atom("u"), Atom("u", 0, True)), "generator 'u' is not declared invertible"),
    ((Atom("p", 1, True), Atom("z")), "inverse atoms carry derivative order 0"),
])
def test_rule_rejects_illegal_pattern_atoms(pattern, message):
    with pytest.raises(ContextError) as info:
        Rule(pattern, P("z*u"))
    assert message in str(info.value)


def test_rules_with_equal_fields_compare_equal():
    a = Rule((Atom("u"), Atom("z")), P("z*u - hbar"))
    assert a == Rule((Atom("u"), Atom("z")), P("z*u - hbar"))
    assert a != Rule((Atom("u"), Atom("z")), P("z*u"))
    assert a != Rule((Atom("v"), Atom("z")), P("z*u - hbar"))
    assert a.pattern == (Atom("u"), Atom("z"))
    assert a.replacement == P("z*u - hbar")
    assert repr(Rule((Atom("u"), Atom("z")), P("z*u"))) == (
        "Rule(pattern=(Atom(gen='u', order=0, inv=False), "
        "Atom(gen='z', order=0, inv=False)), replacement=NCExpr(z*u))")


@pytest.mark.parametrize("name", BUILTIN_RULESET_NAMES)
def test_builtin_rulesets_are_decreasing(name):
    # checked with this module's own word order, not the kernel's
    for rule in _rules_found(builtin_ruleset(name)).values():
        for word in rule.replacement.terms:
            assert _word_order_key(word) < _word_order_key(rule.pattern)


def _zv_vu_uu() -> RuleSet:
    return combine_rulesets("zv+vu+uu", *(builtin_ruleset(name) for name in (
        "quantum-zv", "commute-vu", "commute-uu")))


def _big(power: int = 5) -> NCExpr:
    """``(z + v + u + u' + v')^power``.  Under ``_zv_vu_uu()`` its 3125 words
    for power 5 take 3 021 applications, its 15 625 for power 6 take
    16 568."""
    return P("z + v + u + u' + v'") ** power


def test_big_rewrites_each_word_once():
    run = _RecordingRuleSet(_zv_vu_uu())
    assert len(normalize(_big(), run).terms) == 640
    assert run.applications == 3021
    assert len(set(run.seen)) == len(run.seen)


def test_big6_normalizes_under_the_fixed_cap():
    run = _RecordingRuleSet(_zv_vu_uu())
    assert len(normalize(_big(6), run).terms) == 1850
    assert run.applications == 16568 < ncexpr.PASS_BUDGET
    assert len(set(run.seen)) == len(run.seen)


def test_commutator_helpers_match_methods():
    a, b = P("z + u'"), P("i*v - u")
    assert commutator(a, b) == a * b - b * a
    assert anticommutator(a, b) == a * b + b * a
