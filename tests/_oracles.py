"""Independent cross-checks for the expression kernel.

Translates kernel expressions into sympy's noncommutative algebra and
re-implements the derivative laws there, so the kernel's arithmetic is
graded against an implementation that shares none of its code.  Also hosts
the randomized-expression generator and the five property suites the
acceptance criteria time.

sympy merges adjacent powers of the same base even for noncommutative
symbols (imposing p * p^-1 = 1, which the free algebra does not assume),
so every translation-based comparison here avoids inverse letters; the
kernel-internal property suites exercise inverses separately.
"""

from __future__ import annotations

import itertools
import random

import sympy

from laxlab.ncexpr import (
    BUILTIN_RULESET_NAMES,
    GENERATORS,
    INVERTIBLE,
    Atom,
    NCExpr,
    builtin_ruleset,
    commutator,
    anticommutator,
    normalize,
    parse,
)

_LAM, _HBAR, _ALPHA = sympy.symbols("lam hbar alpha")

_NC_CACHE: dict = {}
_C_CACHE: dict = {}


def _nc_symbol(atom: Atom):
    key = (atom.gen, atom.order)
    sym = _NC_CACHE.get(key)
    if sym is None:
        sym = sympy.Symbol(atom.gen + "__d" * atom.order, commutative=False)
        _NC_CACHE[key] = sym
    return sym ** -1 if atom.inv else sym


def _c_symbol(atom: Atom):
    key = (atom.gen, atom.order)
    sym = _C_CACHE.get(key)
    if sym is None:
        sym = sympy.Symbol("c_" + atom.gen + "__d" * atom.order)
        _C_CACHE[key] = sym
    return sym ** -1 if atom.inv else sym


def _scalar_to_sympy(scal):
    total = sympy.Integer(0)
    for (lam_k, hbar_k, alpha_k), q in scal.terms.items():
        coeff = sympy.Rational(q.re) + sympy.Rational(q.im) * sympy.I
        total += (coeff * _LAM ** lam_k * _HBAR ** hbar_k
                  * _ALPHA ** alpha_k)
    return total


def _word_to_sympy(word, commutative: bool) -> sympy.Expr:
    out = sympy.Integer(1)
    for atom in word:
        out = out * (_c_symbol(atom) if commutative else _nc_symbol(atom))
    return out


def to_sympy(e: NCExpr, commutative: bool = False):
    """Faithful translation into sympy's (non)commutative algebra."""
    total = sympy.Integer(0)
    for word, scal in e.terms.items():
        total += _scalar_to_sympy(scal) * _word_to_sympy(word, commutative)
    return sympy.expand(total)


def sympy_eq(a, b) -> bool:
    return sympy.expand(a - b) == 0


def oracle_d_dz(e: NCExpr):
    """Independent Leibniz derivative: differentiates each letter of each
    word in turn (z -> 1, x^(k) -> x^(k+1), x^-1 -> -x^-1 x' x^-1),
    producing a sympy expression without touching kernel arithmetic."""
    total = sympy.Integer(0)
    for word, scal in e.terms.items():
        coeff = _scalar_to_sympy(scal)
        for idx, atom in enumerate(word):
            pre, post = word[:idx], word[idx + 1:]
            if atom.inv:
                mid = (atom, Atom(atom.gen, atom.order + 1), atom)
                sign = -1
            elif atom.gen == "z" and atom.order == 0:
                mid = ()
                sign = 1
            else:
                mid = (Atom(atom.gen, atom.order + 1),)
                sign = 1
            total += sign * coeff * _word_to_sympy(pre + mid + post, False)
    return sympy.expand(total)


def oracle_d_dlambda(e: NCExpr):
    """Independent spectral derivative: only lam exponents differentiate."""
    total = sympy.Integer(0)
    for word, scal in e.terms.items():
        for (lam_k, hbar_k, alpha_k), q in scal.terms.items():
            if lam_k == 0:
                continue
            coeff = (sympy.Rational(q.re) + sympy.Rational(q.im) * sympy.I)
            total += (lam_k * coeff * _LAM ** (lam_k - 1)
                      * _HBAR ** hbar_k * _ALPHA ** alpha_k
                      * _word_to_sympy(word, False))
    return sympy.expand(total)


# ---------------------------------------------------------------------------
# randomized expression generator
# ---------------------------------------------------------------------------
_SCALAR_POOL = (
    "1", "-1", "2", "-3", "1/2", "-2/3", "i", "-i", "(1/2)*i", "(1-i)",
    "lam", "lam^-1", "lam^2", "hbar", "alpha", "i*hbar", "lam*alpha",
)


def random_scalar(rng: random.Random) -> NCExpr:
    return parse(rng.choice(_SCALAR_POOL))


def random_expr(
    rng: random.Random,
    gens: tuple = ("z", "u", "v"),
    max_terms: int = 3,
    max_len: int = 3,
    max_order: int = 2,
    inv_gens: tuple = (),
) -> NCExpr:
    e = NCExpr.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = random_scalar(rng)
        for _ in range(rng.randint(0, max_len)):
            gen = rng.choice(gens)
            if gen in inv_gens and rng.random() < 0.3:
                term = term * NCExpr.gen(gen, 0, True)
            else:
                order = 0 if gen == "z" else rng.randint(0, max_order)
                term = term * NCExpr.gen(gen, order)
        e = e + term
    return e


# ---------------------------------------------------------------------------
# property suites (shared by the kernel tests and the acceptance gate)
# ---------------------------------------------------------------------------
def run_parser_round_trip(cases: int, seed: int = 101) -> int:
    rng = random.Random(seed)
    for k in range(cases):
        e = random_expr(rng, gens=("z", "u", "v", "p", "q", "nu"),
                        inv_gens=("p", "q"))
        assert parse(str(e)) == e, f"case {k}: {e}"
        c = e.canonical()
        assert parse(str(c)) == c, f"case {k} canonical: {c}"
    return cases


def run_leibniz(cases: int, seed: int = 202, cross_checks: int = 200) -> int:
    rng = random.Random(seed)
    for k in range(cases):
        a = random_expr(rng, gens=("z", "u", "v", "p"), inv_gens=("p",))
        b = random_expr(rng, gens=("z", "u", "v", "p"), inv_gens=("p",))
        prod = a * b
        assert prod.d_dz() == a.d_dz() * b + a * b.d_dz(), f"case {k}"
        assert prod.d_dlambda() == (a.d_dlambda() * b
                                    + a * b.d_dlambda()), f"case {k}"
    for k in range(cross_checks):
        a = random_expr(rng, gens=("z", "u", "v"))
        assert sympy_eq(to_sympy(a.d_dz()), oracle_d_dz(a)), f"cross {k}"
        assert sympy_eq(to_sympy(a.d_dlambda()),
                        oracle_d_dlambda(a)), f"cross {k}"
    return cases


#: letters on which each built-in rule set actually fires
_RULESET_GENS = {
    "quantum-zv": (("z", "u", "v"), ()),
    "quantum-zu": (("z", "u"), ()),
    "inverse-pq": (("p", "q", "r", "u"), ("p", "q", "r")),
    "commute-vu": (("u", "v"), ()),
    "commute-uu": (("u",), ()),
    "weyl-pii": (("p", "q", "r", "u"), ()),
}


#: derivative orders at which rule families are checked: past 8, the highest
#: order that the rule sets once enumerated
RULE_ORDERS = range(13)
#: every atom of every generator at those orders, and every inverse atom
RULE_ATOMS = ([Atom(g, k) for g in GENERATORS for k in RULE_ORDERS]
              + [Atom(g, 0, True) for g in sorted(INVERTIBLE)])


def run_ideal_soundness(cases: int, seed: int = 303) -> int:
    rng = random.Random(seed)
    names = tuple(BUILTIN_RULESET_NAMES)
    for name in names:
        rs = builtin_ruleset(name)
        for pair in itertools.product(RULE_ATOMS, repeat=2):
            hit = rs.find(pair)
            if hit is None:
                continue
            rule = hit[1]
            lhs = NCExpr.one()
            for atom in rule.pattern:
                lhs = lhs * NCExpr.gen(atom.gen, atom.order, atom.inv)
            assert normalize(lhs - rule.replacement, rs).is_zero, (
                f"{name}: rule {rule.pattern} not in its own kernel"
            )
    for k in range(cases):
        name = rng.choice(names)
        gens, inv_gens = _RULESET_GENS[name]
        rs = builtin_ruleset(name)
        a = random_expr(rng, gens=gens, max_order=5, inv_gens=inv_gens)
        b = random_expr(rng, gens=gens, max_order=5, inv_gens=inv_gens)
        na, nb = normalize(a, rs), normalize(b, rs)
        assert normalize(na, rs) == na, f"{name} case {k}: not idempotent"
        assert normalize(a + b, rs) == na + nb, f"{name} case {k}: not linear"
        assert normalize(a * b, rs) == normalize(na * nb, rs), (
            f"{name} case {k}: not multiplicative"
        )
    return cases


def run_commutator_antisymmetry(cases: int, seed: int = 404) -> int:
    rng = random.Random(seed)
    for k in range(cases):
        a = random_expr(rng, gens=("z", "u", "v", "p"), inv_gens=("p",))
        b = random_expr(rng, gens=("z", "u", "v", "p"), inv_gens=("p",))
        c = random_expr(rng, gens=("z", "u", "v"))
        assert commutator(a, b) == -commutator(b, a), f"case {k}"
        assert commutator(a, a).is_zero, f"case {k}: [a,a] != 0"
        assert commutator(a + c, b) == commutator(a, b) + commutator(c, b), (
            f"case {k}: not bilinear"
        )
        assert anticommutator(a, b) == anticommutator(b, a), (
            f"case {k}: anticommutator not symmetric"
        )
    return cases


def run_scalarize_homomorphism(cases: int, seed: int = 505,
                               cross_checks: int = 200) -> int:
    rng = random.Random(seed)
    for k in range(cases):
        a = random_expr(rng, gens=("z", "u", "v", "p"), inv_gens=("p",))
        b = random_expr(rng, gens=("z", "u", "v", "p"), inv_gens=("p",))
        sa, sb = a.scalarize(), b.scalarize()
        assert (a + b).scalarize() == sa + sb, f"case {k}: not additive"
        # the scalar image re-sorts words, so a product of images needs one
        # more projection (same shape as the normalize multiplicativity law)
        assert (a * b).scalarize() == (sa * sb).scalarize(), (
            f"case {k}: not multiplicative"
        )
        assert sa.scalarize() == sa, f"case {k}: not idempotent"
    for k in range(cross_checks):
        a = random_expr(rng, gens=("z", "u", "v"))
        assert sympy_eq(to_sympy(a.scalarize(), commutative=True),
                        to_sympy(a, commutative=True)), f"cross {k}"
    return cases


#: The five property suites by name, in the order the acceptance gate
#: lists them.
SUITES = {
    "parser round-trip": run_parser_round_trip,
    "Leibniz": run_leibniz,
    "ideal soundness": run_ideal_soundness,
    "commutator antisymmetry": run_commutator_antisymmetry,
    "scalarize homomorphism": run_scalarize_homomorphism,
}
