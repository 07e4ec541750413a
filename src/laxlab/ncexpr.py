"""Free-associative-algebra kernel with exact Gaussian-rational coefficients.

The algebra consists of finite sums of *words* over a fixed alphabet of
noncommuting generators.  Each coefficient is a Laurent polynomial in the
central parameter ``lam`` and an ordinary polynomial in the central
parameters ``hbar`` and ``alpha``, over the Gaussian rationals (exact
complex numbers with rational real and imaginary parts).

Nothing in this module touches floating point.  Identities between
generators (commutation relations, inverse cancellation) are never built
in; they are imposed explicitly by rewriting with a :class:`RuleSet`
through :func:`normalize`.

Conventions baked into the kernel:

* The generators are fixed: ``z``, ``u``, ``v``, ``p``, ``q``, ``r``,
  ``nu`` (:data:`GENERATORS`, in the order that ranks atoms in the
  canonical word order), of which ``p``, ``q``, ``r`` are invertible
  (:data:`INVERTIBLE`).  Every other name is rejected.
* ``z`` is a generator (it need not commute with the field variables), but
  its formal derivative is the empty word: ``d_dz(z) == 1``.
* ``lam``, ``hbar``, ``alpha`` are central and live in the coefficients;
  ``beta`` and ``delta`` are parse-time macros for ``i*hbar/4`` and
  ``alpha - 1/2``.
* Inverse atoms exist only for the invertible generators, and only at
  derivative order zero; the derivative of an inverse is produced by the
  Leibniz rule as ``d_dz(p^-1) == -p^-1*p'*p^-1``.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Callable, Iterable, Mapping, NamedTuple

__all__ = [
    "LaxlabError",
    "ParseError",
    "ContextError",
    "RuleError",
    "SubstitutionError",
    "PassBudgetExhausted",
    "QQi",
    "Atom",
    "Word",
    "GENERATORS",
    "INVERTIBLE",
    "NCExpr",
    "Rule",
    "RuleSet",
    "normalize",
    "parse",
    "commutator",
    "anticommutator",
    "builtin_ruleset",
    "BUILTIN_RULESET_NAMES",
    "PASS_BUDGET",
]

#: Rule applications after which :func:`normalize` gives up.  Every rule is
#: decreasing, so rewriting ends without it; it bounds the work of one call.
PASS_BUDGET = 1_000_000


class LaxlabError(Exception):
    """Base class for every error raised by this package."""


class ParseError(LaxlabError):
    """Raised for malformed expression text; carries the offending position."""

    def __init__(self, message: str, text: str = "", pos: int | None = None):
        if pos is not None:
            window = text[pos : pos + 16]
            message = f"{message} (at position {pos}, near {window!r})"
        super().__init__(message)
        self.pos = pos


class ContextError(LaxlabError):
    """Undeclared generator or illegal atom."""


class RuleError(LaxlabError):
    """Rejected rewrite rule (for example, one whose replacement is not
    smaller than its pattern)."""


class SubstitutionError(LaxlabError):
    """Substitution that cannot be carried out (bad inverse replacement)."""


class PassBudgetExhausted(LaxlabError):
    """Rewriting did not reach a normal form within the application budget.

    ``word`` is the word whose rewrite would have exceeded the budget,
    ``applications`` the rule applications carried out before it, and
    ``pending`` the number of other words still waiting to be rewritten.
    """

    def __init__(self, ruleset: str, budget: int, word: tuple,
                 applications: int, pending: int):
        super().__init__(
            f"rewrite budget of {budget} rule applications exhausted by rule "
            f"set {ruleset!r} without reaching a normal form; stopped while "
            f"rewriting {'*'.join(_atom_texts(word))} after {applications} "
            f"applications with {pending} more words pending"
        )
        self.ruleset = ruleset
        self.budget = budget
        self.word = word
        self.applications = applications
        self.pending = pending


def _add_into(out: dict, key, val) -> None:
    """Add ``val`` into ``out[key]``, dropping the entry when the sum is zero."""
    acc = out.get(key)
    if acc is not None:
        val = acc + val
    if val:
        out[key] = val
    elif acc is not None:
        del out[key]


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two term maps ``{word: Scalar}``."""
    out: dict = {}
    for w1, s1 in a.items():
        for w2, s2 in b.items():
            _add_into(out, w1 + w2, s1 * s2)
    return out


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


def _parts(value) -> tuple[int, int]:
    """Numerator and positive denominator of an exact real value."""
    if type(value) is int:
        return value, 1
    if isinstance(value, float):
        raise TypeError("exact arithmetic only: floats are not accepted here")
    f = value if isinstance(value, Fraction) else Fraction(value)
    return f.numerator, f.denominator


class QQi:
    """A Gaussian rational ``(a + b*i)/d`` held as three ints.

    The denominator ``d`` is positive and ``gcd(a, b, d) == 1``, so every
    value has exactly one representation: equality compares the three ints
    and equal values hash equal.  ``re`` and ``im`` give the real and
    imaginary parts as ``Fraction``s.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        a, p = _parts(re)
        b, q = _parts(im)
        if p != q:
            a, b, p = a * q, b * p, p * q
        g = gcd(a, b, p)
        self.a = a // g
        self.b = b // g
        self.d = p // g

    # -- helpers ------------------------------------------------------------
    @classmethod
    def _of(cls, a: int, b: int, d: int) -> "QQi":
        """Build ``(a + b*i)/d`` from ints with ``d > 0``, reducing by the
        common gcd, without the coercion of ``__init__``."""
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        q = object.__new__(cls)
        q.a = a
        q.b = b
        q.d = d
        return q

    @staticmethod
    def _coerce(other) -> "QQi | None":
        if isinstance(other, QQi):
            return other
        if isinstance(other, (int, Fraction)):
            return QQi(other)
        return None

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        o = other if isinstance(other, QQi) else self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        if d == e:
            return QQi._of(self.a + o.a, self.b + o.b, d)
        return QQi._of(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, QQi) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if isinstance(other, QQi) else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        den = self.d * o.d
        # Rule coefficients are mostly purely real or purely imaginary;
        # the cross products of a zero part are skipped.
        if not b:
            return QQi._of(a * c, a * d, den)
        if not a:
            return QQi._of(-(b * d), b * c, den)
        if not d:
            return QQi._of(a * c, b * c, den)
        if not c:
            return QQi._of(-(b * d), a * d, den)
        return QQi._of(a * c - b * d, a * d + b * c, den)

    __rmul__ = __mul__

    def __neg__(self):
        q = object.__new__(QQi)
        q.a = -self.a
        q.b = -self.b
        q.d = self.d
        return q

    def inverse(self) -> "QQi":
        a, b, d = self.a, self.b, self.d
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        # d / (a + b*i) = d*(a - b*i) / (a^2 + b^2)
        return QQi._of(d * a, -d * b, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparisons ----------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return _format_ratio(a, d)
        mag = abs(b)
        body = "i" if mag == d else f"{_format_ratio(mag, d)}*i"
        if a:
            joiner = "+" if b > 0 else "-"
            return f"{_format_ratio(a, d)}{joiner}{body}"
        return body if b > 0 else f"-{body}"


_QQI_ZERO = QQi(0)
_QQI_ONE = QQi(1)
_QQI_I = QQi(0, 1)
_QQI_BETA = QQi(0, Fraction(1, 4))


# ---------------------------------------------------------------------------
# Coefficients: Laurent in lam, polynomial in hbar and alpha
# ---------------------------------------------------------------------------

#: Exponent key: (lam exponent, hbar exponent, alpha exponent).
ExpKey = tuple[int, int, int]


class Scalar:
    """A coefficient: finite map from exponent keys to Gaussian rationals.

    The ``lam`` exponent may be negative (Laurent); the ``hbar`` and
    ``alpha`` exponents are non-negative.  Only the kernel builds
    coefficients, and it hands the constructor a map that is already clean:
    ``QQi`` values, none of them zero.  The class holds the ring operations
    only; every other per-monomial transform is :meth:`NCExpr._map_monomials`.
    Instances are immutable by convention: no method mutates ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ExpKey, QQi]):
        self.terms = terms

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        out = dict(self.terms)
        for key, y in other.terms.items():
            x = out.get(key)
            if x is None:
                out[key] = y
                continue
            d, e = x.d, y.d
            if d == e:
                a, b = x.a + y.a, x.b + y.b
            else:
                a, b, d = x.a * e + y.a * d, x.b * e + y.b * d, d * e
            if a or b:
                out[key] = QQi._of(a, b, d)
            else:
                del out[key]
        return Scalar(out)

    def __neg__(self) -> "Scalar":
        return Scalar({k: -v for k, v in self.terms.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        out: dict[ExpKey, QQi] = {}
        for (l1, h1, a1), x in self.terms.items():
            xa, xb, xd = x.a, x.b, x.d
            for (l2, h2, a2), y in other.terms.items():
                ya, yb = y.a, y.b
                # The product's numerator; as in QQi.__mul__, the cross
                # products of a zero part are skipped.
                if not xb:
                    a, b = xa * ya, xa * yb
                elif not xa:
                    a, b = -(xb * yb), xb * ya
                elif not yb:
                    a, b = xa * ya, xb * ya
                elif not ya:
                    a, b = -(xb * yb), xa * yb
                else:
                    a, b = xa * ya - xb * yb, xa * yb + xb * ya
                d = xd * y.d
                key = (l1 + l2, h1 + h2, a1 + a2)
                acc = out.get(key)
                if acc is not None:
                    # Add the unreduced product, so one gcd serves both.
                    e = acc.d
                    if d == e:
                        a, b = a + acc.a, b + acc.b
                    else:
                        a, b, d = a * e + acc.a * d, b * e + acc.b * d, d * e
                    if not (a or b):
                        del out[key]
                        continue
                out[key] = QQi._of(a, b, d)
        return Scalar(out)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Scalar({self.terms!r})"


def _mono(key: ExpKey, c: QQi) -> Scalar:
    """Coefficient ``c`` at the monomial ``key``; empty when ``c`` is zero."""
    return Scalar({key: c} if c else {})


def _constant(value) -> Scalar:
    """The constant coefficient of an int, ``Fraction`` or ``QQi`` value."""
    return _mono((0, 0, 0), value if isinstance(value, QQi) else QQi(value))


#: The unit coefficient 1.
_ONE = Scalar({(0, 0, 0): _QQI_ONE})


# ---------------------------------------------------------------------------
# Atoms, words, the generator alphabet
# ---------------------------------------------------------------------------


class Atom(NamedTuple):
    """One letter of a word: a generator, its derivative order, inverse flag."""

    gen: str
    order: int = 0
    inv: bool = False


#: Words are plain tuples of :class:`Atom`; the empty tuple is the identity.
Word = tuple

#: The generators, in the order that ranks atoms in the canonical word order.
GENERATORS = ("z", "u", "v", "p", "q", "r", "nu")
#: The generators that have inverse atoms.
INVERTIBLE = frozenset({"p", "q", "r"})
_RANK = {name: k for k, name in enumerate(GENERATORS)}


def _rank(name: str) -> int:
    try:
        return _RANK[name]
    except KeyError:
        raise ContextError(f"undeclared generator {name!r}") from None


def _check_atom(atom: Atom) -> None:
    _rank(atom.gen)
    if atom.order < 0:
        raise ContextError("negative derivative order")
    if atom.inv:
        if atom.gen not in INVERTIBLE:
            raise ContextError(
                f"generator {atom.gen!r} is not declared invertible"
            )
        if atom.order != 0:
            raise ContextError(
                "inverse atoms carry derivative order 0; derivatives of "
                "inverses arise from the Leibniz rule"
            )


def _word_key(word: tuple) -> tuple:
    try:
        return (len(word), tuple((_RANK[a.gen], a.order, 1 if a.inv else 0)
                                 for a in word))
    except KeyError as exc:
        raise ContextError(f"undeclared generator {exc.args[0]!r}") from None


def _desc_key(word: tuple) -> tuple:
    """``_word_key`` with every int negated: it sorts words largest-first.
    ``word`` holds declared generators only."""
    return (-len(word), tuple((-_RANK[a.gen], -a.order, -a.inv) for a in word))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class NCExpr:
    """A finite sum of coefficient-weighted words over the generators.

    ``terms`` maps each word to its nonzero coefficient.  Instances are
    immutable by convention; every operation returns a new expression.
    Equality is literal equality of the term maps (use :func:`normalize`
    first when equality modulo relations is intended).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        clean: dict[tuple, Scalar] = {}
        if terms:
            for word, scal in terms.items():
                for atom in word:
                    _check_atom(atom)
                if not isinstance(scal, Scalar):
                    scal = _constant(scal)
                _add_into(clean, word, scal)
        self.terms = clean

    # -- constructors -----------------------------------------------------------
    @classmethod
    def _of(cls, terms: dict[tuple, Scalar]) -> "NCExpr":
        """Wrap a term map that already holds no zero coefficients, skipping
        the validation of ``__init__``."""
        e = object.__new__(cls)
        e.terms = terms
        return e

    @classmethod
    def zero(cls) -> "NCExpr":
        return cls()

    @classmethod
    def one(cls) -> "NCExpr":
        return cls._of({(): _mono((0, 0, 0), _QQI_ONE)})

    @classmethod
    def scalar(cls, value) -> "NCExpr":
        return cls({(): _constant(value)})

    @classmethod
    def gen(cls, name: str, order: int = 0, inv: bool = False) -> "NCExpr":
        atom = Atom(name, order, inv)
        _check_atom(atom)
        if name == "z" and order >= 1 and not inv:
            # z' is the multiplicative identity, higher derivatives vanish
            return cls.one() if order == 1 else cls.zero()
        return cls._of({(atom,): _mono((0, 0, 0), _QQI_ONE)})

    @classmethod
    def hbar(cls) -> "NCExpr":
        return cls._of({(): _mono((0, 1, 0), _QQI_ONE)})

    @classmethod
    def imag_unit(cls) -> "NCExpr":
        return cls.scalar(_QQI_I)

    # -- plumbing ---------------------------------------------------------------
    @staticmethod
    def _coerce(value) -> "NCExpr | None":
        if isinstance(value, NCExpr):
            return value
        if isinstance(value, (int, Fraction, QQi)):
            return NCExpr.scalar(value)
        return None

    def _map_monomials(self, fn) -> "NCExpr":
        """Apply ``fn`` to every monomial of every coefficient.

        ``fn`` maps an ``(exponent key, QQi)`` pair to a new pair, or to
        ``None`` to drop the monomial.  Monomials that land on one key are
        summed, and a word whose coefficient ends up empty is dropped.
        """
        out: dict[tuple, Scalar] = {}
        for word, scal in self.terms.items():
            terms: dict[ExpKey, QQi] = {}
            for key, c in scal.terms.items():
                got = fn(key, c)
                if got is not None:
                    _add_into(terms, *got)
            if terms:
                out[word] = Scalar(terms)
        return NCExpr._of(out)

    # -- ring operations ----------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for word, scal in o.terms.items():
            _add_into(out, word, scal)
        return NCExpr._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return NCExpr._of({w: -s for w, s in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NCExpr._of(_mul_terms(self.terms, o.terms))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QQi(other)
        if isinstance(other, QQi):
            return self.scalar_mul(other.inverse())
        return NotImplemented

    def scalar_mul(self, value) -> "NCExpr":
        scal = _constant(value)
        out = {}
        for w, s in self.terms.items():
            prod = s * scal
            if prod:
                out[w] = prod
        return NCExpr._of(out)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ContextError(
                "negative powers exist only for single invertible generators"
            )
        acc = NCExpr.one()
        for _ in range(n):
            acc = acc * self
        return acc

    # -- queries --------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = NCExpr.scalar(other)
        if not isinstance(other, NCExpr):
            return NotImplemented
        return self.terms == other.terms

    def sorted_terms(self) -> list[tuple[tuple, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: _word_key(kv[0]))

    def min_word(self) -> tuple | None:
        if not self.terms:
            return None
        return min(self.terms, key=_word_key)

    # -- calculus ---------------------------------------------------------------
    def d_dz(self) -> "NCExpr":
        out: dict[tuple, Scalar] = {}
        for word, scal in self.terms.items():
            for i, atom in enumerate(word):
                head, tail = word[:i], word[i + 1 :]
                if atom.inv:
                    mid = (atom, Atom(atom.gen, 1, False), atom)
                    _add_into(out, head + mid + tail, -scal)
                elif atom.gen == "z":
                    _add_into(out, head + tail, scal)
                else:
                    mid = (Atom(atom.gen, atom.order + 1, False),)
                    _add_into(out, head + mid + tail, scal)
        return NCExpr._of(out)

    def d_dlambda(self) -> "NCExpr":
        return self._map_monomials(
            lambda k, c: ((k[0] - 1, k[1], k[2]), c * k[0]) if k[0] else None)

    # -- substitution --------------------------------------------------------------
    def substitute(self, mapping: Mapping[str, "NCExpr"]) -> "NCExpr":
        """Substitute expressions for generators.

        A binding for a generator also binds every derivative: the k-th
        derivative atom is replaced by the k-th ``d_dz`` of the replacement.
        A binding for an *invertible* generator whose inverse atoms occur
        must itself be invertible in the obvious restricted sense
        (a central multiple of a single order-0 atom of an invertible
        generator, or of the empty word); anything else raises
        :class:`SubstitutionError`.
        """
        for name, repl in mapping.items():
            _rank(name)
            if not isinstance(repl, NCExpr):
                raise SubstitutionError("replacements must be expressions")

        towers: dict[tuple[str, int], NCExpr] = {}
        inverses: dict[str, NCExpr] = {}

        def tower(name: str, order: int) -> NCExpr:
            key = (name, order)
            got = towers.get(key)
            if got is None:
                if order == 0:
                    got = mapping[name]
                else:
                    got = tower(name, order - 1).d_dz()
                towers[key] = got
            return got

        def inverse_replacement(name: str) -> NCExpr:
            got = inverses.get(name)
            if got is not None:
                return got
            repl = mapping[name]
            items = list(repl.terms.items())
            if len(items) != 1:
                raise SubstitutionError(
                    f"cannot invert the replacement of {name!r}: not a single term"
                )
            word, scal = items[0]
            if len(scal.terms) != 1:
                raise SubstitutionError(
                    f"cannot invert the replacement of {name!r}: coefficient is "
                    "not a single monomial"
                )
            (((l, h, a), c),) = scal.terms.items()
            if h or a:
                raise SubstitutionError(
                    f"cannot invert the replacement of {name!r}: hbar/alpha "
                    "factors have no inverse here"
                )
            inv_scal = _mono((-l, 0, 0), c.inverse())
            if word == ():
                inv_word: tuple = ()
            elif len(word) == 1 and word[0].order == 0 and (
                word[0].gen in INVERTIBLE
            ):
                inv_word = (Atom(word[0].gen, 0, not word[0].inv),)
            else:
                raise SubstitutionError(
                    f"cannot invert the replacement of {name!r}: not a single "
                    "invertible atom"
                )
            got = NCExpr({inv_word: inv_scal})
            inverses[name] = got
            return got

        result = NCExpr.zero()
        for word, scal in self.terms.items():
            acc = NCExpr._of({(): scal})
            for atom in word:
                if atom.gen in mapping:
                    if atom.inv:
                        factor = inverse_replacement(atom.gen)
                    else:
                        factor = tower(atom.gen, atom.order)
                else:
                    factor = NCExpr._of({(atom,): _mono((0, 0, 0), _QQI_ONE)})
                acc = acc * factor
            result = result + acc
        return result

    # -- limits and quotients ---------------------------------------------------------
    def classical_limit(self) -> "NCExpr":
        return self._map_monomials(lambda k, c: None if k[1] else (k, c))

    def scalarize(self) -> "NCExpr":
        """Project onto the commutative quotient.

        Atoms of every word are sorted into the canonical order and adjacent
        inverse pairs of the same generator cancel (exponent arithmetic).
        Inverse atoms remain atomic in the quotient, so no fraction-field
        machinery is needed and the operation is total.
        """
        out: dict[tuple, Scalar] = {}
        for word, scal in self.terms.items():
            counts: dict[tuple[int, str, int], int] = {}
            for atom in word:
                key = (_rank(atom.gen), atom.gen, atom.order)
                counts[key] = counts.get(key, 0) + (-1 if atom.inv else 1)
            new_word: list[Atom] = []
            for (idx, gen, order), count in sorted(counts.items()):
                if count == 0:
                    continue
                inv = count < 0
                new_word.extend(Atom(gen, order, inv) for _ in range(abs(count)))
            _add_into(out, tuple(new_word), scal)
        return NCExpr._of(out)

    # -- structural transforms -----------------------------------------------------
    def split_lambda(self) -> dict[int, "NCExpr"]:
        """Coefficients of each lam power, with lam stripped from the keys."""
        buckets: dict[int, dict[tuple, Scalar]] = {}
        for word, scal in self.terms.items():
            for (l, h, a), c in scal.terms.items():
                _add_into(buckets.setdefault(l, {}), word,
                          _mono((0, h, a), c))
        return {l: NCExpr._of(terms) for l, terms in buckets.items()}

    def negate_alpha(self) -> "NCExpr":
        return self._map_monomials(lambda k, c: (k, -c if k[2] % 2 else c))

    def reflect_z(self) -> "NCExpr":
        """The image under z -> -z with fields transported by the chain rule.

        Each order-0 ``z`` atom contributes a factor -1 and each derivative
        order k of a field atom contributes (-1)^k, so an equation in
        ``u(z)`` maps to the equation satisfied by ``u(-z)``.
        """
        out: dict[tuple, Scalar] = {}
        for word, scal in self.terms.items():
            sign = 0
            for atom in word:
                if atom.gen == "z" and not atom.inv:
                    sign += 1
                sign += atom.order
            out[word] = scal if sign % 2 == 0 else -scal
        return NCExpr._of(out)

    def canonical_with_scale(self) -> tuple["NCExpr", QQi]:
        """Divide by the Gaussian-rational of the minimal word's minimal
        monomial, returning (canonical form, the divisor).

        Scalar multiples by plain Gaussian rationals share one canonical
        form; multiples by hbar/alpha/lam monomials do not (they are
        genuinely different equations).
        """
        w0 = self.min_word()
        if w0 is None:
            return self, _QQI_ONE
        scal = self.terms[w0]
        k0 = min(scal.terms)
        c = scal.terms[k0]
        return self.scalar_mul(c.inverse()), c

    def canonical(self) -> "NCExpr":
        return self.canonical_with_scale()[0]

    # -- printing -------------------------------------------------------------------
    def to_string(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for word, scal in self.sorted_terms():
            atoms = _atom_texts(word)
            terms = scal.terms
            for key in sorted(terms):
                sign, body = _format_term(key, terms[key], atoms)
                chunks.append((" - " if sign < 0 else " + ") + body)
        text = "".join(chunks)
        return "-" + text[3:] if text[1] == "-" else text[3:]

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"NCExpr({self.to_string()})"


def _format_ratio(n: int, d: int) -> str:
    """Print ``n/d`` (``d > 0``) in lowest terms, as the integer when whole."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def _atom_texts(word: tuple) -> list[str]:
    return [
        (atom.gen + "^-1") if atom.inv else (atom.gen + "'" * atom.order)
        for atom in word
    ]


def _format_term(key: ExpKey, c: QQi, atoms: list[str]) -> tuple[int, str]:
    """Return (sign, body) for one printed monomial; body has no leading sign.

    ``atoms`` is ``_atom_texts(word)`` of the monomial's word."""
    l, h, a = key
    centrals: list[str] = []
    if l:
        centrals.append("lam" if l == 1 else f"lam^{l}")
    if h:
        centrals.append("hbar" if h == 1 else f"hbar^{h}")
    if a:
        centrals.append("alpha" if a == 1 else f"alpha^{a}")
    tail = centrals + atoms

    a, b, d = c.a, c.b, c.d
    if a and b:
        # mixed complex number: keep it intact inside parentheses
        return 1, "*".join([f"({c})"] + tail)
    if b:
        sign = 1 if b > 0 else -1
        return sign, "*".join([str(c if sign > 0 else -c)] + tail)
    sign = 1 if a > 0 else -1
    mag = abs(a)
    if mag == d == 1 and tail:
        return sign, "*".join(tail)
    return sign, "*".join([_format_ratio(mag, d)] + tail)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: One token: an integer, a name, a caret exponent, primes, a commutator
#: subscript or an operator.  Whitespace starts no token, so ``findall``
#: steps over it.
_TOKEN_RE = re.compile(r"\d+|[A-Za-z]+|\^-?\d+|'+|_[+-]|[-+*/(),\[\]]")
#: A character that no token can hold: one outside the alphabet, or a ``^``
#: or ``_`` that does not start a caret exponent or a subscript.
_BAD_RE = re.compile(r"[^\s\dA-Za-z^'_\-+*/(),\[\]]|\^(?!-?\d)|_(?![+-])")

_K0 = (0, 0, 0)  # the exponent key of a constant


def _as_terms(value) -> dict:
    """The term map of a parsed value (a monomial tuple or a term map)."""
    if type(value) is tuple:
        word, key, c = value
        return {word: Scalar({key: c})} if c else {}
    return value


def _mul_values(x, y):
    """The product of two parsed values (monomial tuples or term maps)."""
    if type(x) is tuple and type(y) is tuple:
        w1, (l1, h1, a1), c1 = x
        w2, (l2, h2, a2), c2 = y
        return w1 + w2, (l1 + l2, h1 + h2, a1 + a2), c1 * c2
    return _mul_terms(_as_terms(x), _as_terms(y))


def _single(terms: dict):
    """``terms`` as a monomial tuple when it is empty or one monomial;
    otherwise ``terms`` itself."""
    if not terms:
        return (), _K0, _QQI_ZERO
    if len(terms) == 1:
        ((word, scal),) = terms.items()
        if len(scal.terms) == 1:
            ((key, c),) = scal.terms.items()
            return word, key, c
    return terms


class _Parser:
    """Recursive descent over the token strings of one text.

    While a factor or a term is a single monomial it is the tuple
    ``(word, exponent key, QQi)``, and a zero coefficient stands for the
    empty sum; a product of two such tuples is one word concatenation, one
    exponent sum and one ``QQi`` product.  Term maps ``{word: Scalar}`` are
    built only for values that are not one monomial: parenthesized sums,
    commutators, ``delta`` and its powers, and products with these.  A sum
    adds each term into one map in place.  Token positions are recomputed
    from the text only when an error is raised.
    """

    def __init__(self, text: str):
        bad = _BAD_RE.search(text)
        if bad is not None:
            raise ParseError("unexpected character", text, bad.start())
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append("")  # end of input
        self.i = 0

    # -- token plumbing ----------------------------------------------------------
    def error(self, message: str, index: int | None = None) -> ParseError:
        """A ``ParseError`` at token ``index``, by default the current one."""
        if index is None:
            index = self.i
        match = next(islice(_TOKEN_RE.finditer(self.text), index, None), None)
        pos = len(self.text) if match is None else match.start()
        return ParseError(message, self.text, pos)

    def expect(self, op: str) -> None:
        if self.toks[self.i] != op:
            raise self.error(f"expected {op!r}")
        self.i += 1

    def integer(self, digits: str) -> int:
        """The value of the current token's digits; more digits than the
        interpreter converts to an integer is a ``ParseError`` there."""
        try:
            return int(digits)
        except ValueError:
            raise self.error("integer has too many digits") from None

    def caret(self) -> int | None:
        tok = self.toks[self.i]
        if tok[:1] == "^":
            n = self.integer(tok[1:])
            self.i += 1
            return n
        return None

    # -- grammar -------------------------------------------------------------------
    def parse(self) -> NCExpr:
        try:
            value = self.expr()
        except RecursionError:
            raise self.error("expression nested too deeply") from None
        if self.toks[self.i]:
            raise self.error("trailing input")
        return NCExpr._of(_as_terms(value))

    def expr(self):
        toks = self.toks
        tok = toks[self.i]
        negate = tok == "-"
        if negate or tok == "+":
            self.i += 1
        term = self.term()
        tok = toks[self.i]
        if tok != "+" and tok != "-":
            if not negate:
                return term
            if type(term) is tuple:
                return term[0], term[1], -term[2]
            return {word: -scal for word, scal in term.items()}
        terms: dict[tuple, Scalar] = {}
        while True:
            if type(term) is tuple:
                word, key, c = term
                if c:
                    _add_into(terms, word, Scalar({key: -c if negate else c}))
            else:
                for word, scal in term.items():
                    _add_into(terms, word, -scal if negate else scal)
            if tok != "+" and tok != "-":
                return terms
            negate = tok == "-"
            self.i += 1
            term = self.term()
            tok = toks[self.i]

    def term(self):
        toks = self.toks
        acc = self.factor()
        while True:
            tok = toks[self.i]
            if tok == "*":
                self.i += 1
                rhs = self.factor()
            elif tok == "/":
                self.i += 1
                rhs = self.divisor()
            else:
                return acc
            acc = _mul_values(acc, rhs)

    def divisor(self):
        start = self.i
        value = self.factor()
        if type(value) is dict:
            value = _single(value)
        if type(value) is dict:
            raise self.error(
                "division only by a single central monomial"
                if list(value) == [()] else "division only by central scalars",
                start,
            )
        word, (l, h, a), c = value
        if not c:
            raise self.error("division by zero", start)
        if word:
            raise self.error("division only by central scalars", start)
        if h or a:
            raise self.error(
                "division by hbar or alpha is not representable", start)
        return (), (-l, 0, 0), c.inverse()

    def factor(self):
        tok = self.toks[self.i]
        if tok.isalpha():
            return self.name()
        if tok.isdecimal():
            n = self.integer(tok)
            self.i += 1
            return (), _K0, QQi._of(n, 0, 1)
        if tok == "(":
            self.i += 1
            inner = self.expr()
            self.expect(")")
            return _single(inner) if type(inner) is dict else inner
        if tok == "[":
            self.i += 1
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            tok = self.toks[self.i]
            anti = tok == "_+"
            if anti or tok == "_-":
                self.i += 1
            out = _as_terms(_mul_values(left, right))
            for word, scal in _as_terms(_mul_values(right, left)).items():
                _add_into(out, word, scal if anti else -scal)
            return out
        raise self.error("expected a factor")

    def name(self):
        toks = self.toks
        start = self.i
        name = toks[start]
        self.i += 1
        if name in _RANK:
            order = 0
            if toks[self.i][:1] == "'":
                order = len(toks[self.i])
                self.i += 1
            power = self.caret()
            inv = False
            if power is None:
                power = 1
            elif power < 0:
                if order:
                    raise self.error(
                        "negative powers apply only to underived generators",
                        start)
                if name not in INVERTIBLE:
                    raise self.error(
                        f"generator {name!r} is not declared invertible",
                        start)
                power, inv = -power, True
            if name == "z" and order:
                # z' is the multiplicative identity, higher derivatives vanish
                return (), _K0, _QQI_ONE if order == 1 or not power else _QQI_ZERO
            return (Atom(name, order, inv),) * power, _K0, _QQI_ONE
        if name == "i":
            return (), _K0, _QQI_I
        if name in ("lam", "hbar", "alpha"):
            power = self.caret()
            if power is None:
                power = 1
            elif power < 0 and name != "lam":
                raise self.error(
                    f"{name} admits only non-negative exponents", start)
            key = tuple(power if n == name else 0 for n in ("lam", "hbar", "alpha"))
            return (), key, _QQI_ONE
        if name not in ("beta", "delta"):
            raise self.error(f"undeclared generator {name!r}", start)
        power = self.caret()
        if power is not None and power < 0:
            raise self.error("macros admit only non-negative exponents", start)
        if name == "beta":
            if power is None:
                power = 1
            c = _QQI_ONE
            for _ in range(power):
                c = c * _QQI_BETA
            return (), (0, power, 0), c
        base = {(): Scalar({(0, 0, 1): _QQI_ONE, _K0: QQi(Fraction(-1, 2))})}
        if power is None:
            return base
        acc = {(): Scalar({_K0: _QQI_ONE})}
        for _ in range(power):
            acc = _mul_terms(acc, base)
        return acc


def parse(text: str) -> NCExpr:
    """Parse expression text into an (unnormalized) expression.

    The grammar: sums/differences of terms; terms are ``*``-products of
    factors with ``/`` by central scalars; factors are integers, ``i``,
    the central symbols ``lam``/``hbar``/``alpha`` (with integer caret
    exponents, negative only for ``lam``), the macros ``beta`` (= i*hbar/4)
    and ``delta`` (= alpha - 1/2), generators with prime derivatives and
    caret powers (negative powers only for invertible generators),
    commutators ``[a,b]`` / ``[a,b]_-`` and anticommutators ``[a,b]_+``,
    and parenthesized expressions.  ``print``/``parse`` round-trip.

    One pass: a single regex search rejects a character no token can hold,
    one ``findall`` splits the text into token strings, and the recursive
    descent builds single-monomial terms as plain tuples.  Malformed text,
    nesting too deep for the interpreter's recursion limit included, raises
    :class:`ParseError` with the offending position.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


class Rule:
    """An oriented rewrite rule: an adjacent atom pair -> an expression.

    Every word of the replacement must be smaller than the pattern in the
    canonical (shortlex) word order, a well-order compatible with
    concatenation, so every rewrite makes a word smaller and rewriting
    ends.  ``steps`` holds, for each term of the replacement, its word, the
    per-atom part of the word's largest-first heap key and its coefficient,
    given as ``None`` when it is 1: :func:`normalize` splices the key part
    into the rewritten word's key instead of recomputing it, and adds a
    rewritten word's coefficient as it is instead of multiplying it by one.
    Called with an atom pair, a rule is the one-pattern rule source of a
    :class:`RuleSet`.
    """

    __slots__ = ("pattern", "replacement", "steps")

    def __init__(self, pattern: tuple[Atom, Atom], replacement: NCExpr):
        for atom in pattern:
            _check_atom(atom)
        key = _word_key(pattern)
        steps = []
        for word, scal in replacement.terms.items():
            if not _word_key(word) < key:
                raise RuleError(
                    f"rule replacement word {'*'.join(_atom_texts(word))} "
                    f"is not smaller than its pattern "
                    f"{'*'.join(_atom_texts(pattern))} in the shortlex order"
                )
            steps.append((word, _desc_key(word)[1],
                          None if scal == _ONE else scal))
        self.pattern = pattern
        self.replacement = replacement
        self.steps = tuple(steps)

    def __call__(self, pair: tuple[Atom, Atom]) -> "Rule | None":
        return self if pair == self.pattern else None

    def __eq__(self, other):
        if not isinstance(other, Rule):
            return NotImplemented
        return (self.pattern == other.pattern
                and self.replacement == other.replacement)

    def __repr__(self):
        return (f"Rule(pattern={self.pattern!r}, "
                f"replacement={self.replacement!r})")


class RuleSet:
    """A named, ordered tuple of rule sources.

    A rule source maps an adjacent atom pair to the :class:`Rule` that
    rewrites it, or to ``None``.  A :class:`Rule` is the source of its own
    pattern.  A rule family, such as a derivative tower, is a function that
    builds the rule for a pair from the derivative orders of its atoms, so
    it covers every order; each rule it builds passes the decreasing check
    of :class:`Rule` as it is built.

    Rules are applied leftmost-first: positions are scanned left to right,
    and at each position the rule of the first source, in registration
    order, that covers the atom pair there fires.  Earlier sources take
    precedence when two cover the same pair.  The rule found for a pair,
    or that there is none, is kept, so the sources are asked once per pair.
    """

    def __init__(self, name: str,
                 sources: Iterable[Callable[[tuple], Rule | None]]):
        self.name = name
        self.sources = tuple(sources)
        self._table: dict[tuple[Atom, Atom], Rule | None] = {}

    def find(self, word: tuple) -> tuple[int, Rule] | None:
        table = self._table
        for pos in range(len(word) - 1):
            pair = word[pos], word[pos + 1]
            try:
                rule = table[pair]
            except KeyError:
                rule = table[pair] = next(
                    filter(None, (source(pair) for source in self.sources)),
                    None)
            if rule is not None:
                return pos, rule
        return None

    def __repr__(self):
        return f"RuleSet({self.name!r}, {len(self.sources)} sources)"


def combine_rulesets(name: str, *rulesets: RuleSet) -> RuleSet:
    if not rulesets:
        raise RuleError("no rule sets to combine")
    return RuleSet(name, [src for rs in rulesets for src in rs.sources])


def normalize(e: NCExpr, rules: RuleSet | None) -> NCExpr:
    """Rewrite to a normal form in which no rule pattern occurs.

    Each word has one fixed rewrite step: the first rule, in registration
    order, at the leftmost position where a pattern occurs.  The normal form
    is therefore a linear map of the input, and the order in which pending
    words are rewritten changes the work done, never the result.  Pending
    words wait in a heap and are rewritten largest-first in the canonical
    word order; each word's key is computed once, when the word enters the
    pending map (a rewritten word's from the key of the word it came from).
    Every rule is decreasing, so a rewrite yields only smaller words: every
    contribution to a word has arrived before it is popped, and each word
    is popped, and so rewritten or made final, once.  A rewrite past the
    first :data:`PASS_BUDGET` rule applications raises
    :class:`PassBudgetExhausted`.
    """
    if rules is None:
        return e
    pending: dict[tuple, Scalar] = dict(e.terms)
    heap = [(_desc_key(w), w) for w in pending]
    heapq.heapify(heap)
    done: dict[tuple, Scalar] = {}
    applications = 0
    while heap:
        key, word = heapq.heappop(heap)
        # A word whose coefficient cancelled, or that was already popped
        # through a second heap entry, is no longer pending: skip it.
        scal = pending.pop(word, None)
        if not scal:
            continue
        hit = rules.find(word)
        if hit is None:
            done[word] = scal
            continue
        if applications == PASS_BUDGET:
            raise PassBudgetExhausted(
                rules.name, PASS_BUDGET, word, applications, len(pending)
            )
        applications += 1
        pos, rule = hit
        head, tail = word[:pos], word[pos + 2 :]
        # A new word's key, _desc_key(new_word), is spliced from the popped
        # word's key: the replaced atoms' part gives way to the step's.
        atoms = key[1]
        khead, ktail = atoms[:pos], atoms[pos + 2 :]
        for rword, rkey, rscal in rule.steps:
            new_word = head + rword + tail
            add = scal if rscal is None else scal * rscal
            acc = pending.get(new_word)
            if acc is None:
                if add:
                    pending[new_word] = add
                    heapq.heappush(
                        heap, ((-len(new_word), khead + rkey + ktail), new_word)
                    )
                continue
            add = acc + add
            if add:
                pending[new_word] = add
            else:
                del pending[new_word]
    return NCExpr._of(done)


# ---------------------------------------------------------------------------
# Functional conveniences
# ---------------------------------------------------------------------------


def commutator(a: NCExpr, b: NCExpr) -> NCExpr:
    return a * b - b * a


def anticommutator(a: NCExpr, b: NCExpr) -> NCExpr:
    return a * b + b * a


# ---------------------------------------------------------------------------
# Built-in rule sets
# ---------------------------------------------------------------------------

# A family writes its replacement out as a term map, in the term order that
# its algebraic definition (products and sums of generators) gives.

_Z = Atom("z")


def _z_tower(name: str, gen: str, sign: int) -> RuleSet:
    """The rules x^(k) * z -> z * x^(k) + sign*(i/2)*hbar*u^(k) for
    x = ``gen`` and every derivative order k: normal ordering that pushes z
    leftward past every derivative of one generator."""
    half = _mono((0, 1, 0), QQi(0, Fraction(sign, 2)))

    def family(pair: tuple[Atom, Atom]) -> Rule | None:
        x, z = pair
        if x.gen != gen or z != _Z:
            return None
        return Rule(pair, NCExpr._of({(z, x): _ONE,
                                      (Atom("u", x.order),): half}))

    return RuleSet(name, (family,))


def quantum_zv_rules() -> RuleSet:
    """The relation [z, v] = -(i/2)*hbar*u and its derivative tower.

    Oriented to push z leftward: v^(k) * z -> z * v^(k) + (i/2)*hbar*u^(k).
    """
    return _z_tower("quantum-zv", "v", 1)


def quantum_zu_rules() -> RuleSet:
    """The relation [z, u] = -(i/2)*hbar*u and its derivative tower.

    Oriented to push z leftward: u^(k) * z -> z * u^(k) + (i/2)*hbar*u^(k).
    """
    return _z_tower("quantum-zu", "u", 1)


def inverse_rules() -> RuleSet:
    """Two-sided cancellation g * g^-1 -> 1 for every invertible generator."""
    rules = []
    for name in sorted(INVERTIBLE, key=_rank):
        plain = Atom(name, 0, False)
        inv = Atom(name, 0, True)
        one = NCExpr.one()
        rules.append(Rule((plain, inv), one))
        rules.append(Rule((inv, plain), one))
    return RuleSet("inverse-pq", rules)


def _commute_vu(pair: tuple[Atom, Atom]) -> Rule | None:
    v, u = pair
    if v.gen != "v" or u.gen != "u":
        return None
    return Rule(pair, NCExpr._of({(u, v): _ONE}))


def _commute_uu(pair: tuple[Atom, Atom]) -> Rule | None:
    high, low = pair
    if high.gen != "u" or low.gen != "u" or high.order <= low.order:
        return None
    return Rule(pair, NCExpr._of({(low, high): _ONE}))


def commute_vu_rules() -> RuleSet:
    """Let v and all its derivatives commute past u and all its derivatives:
    v^(j) * u^(k) -> u^(k) * v^(j)."""
    return RuleSet("commute-vu", (_commute_vu,))


def commute_uu_rules() -> RuleSet:
    """Let u commute with its own derivatives, sorted by order:
    u^(j) * u^(k) -> u^(k) * u^(j) for j > k."""
    return RuleSet("commute-uu", (_commute_uu,))


def weyl_pii_rules() -> RuleSet:
    """The symmetric-form commutation relations [r,q] = 2*hbar*u,
    [u,q] = hbar, [u,r] = hbar, oriented toward the canonical order."""
    hbar = NCExpr.hbar()
    u = NCExpr.gen("u")
    q = NCExpr.gen("q")
    r = NCExpr.gen("r")
    rules = [
        Rule((Atom("r", 0), Atom("q", 0)), q * r + 2 * hbar * u),
        Rule((Atom("q", 0), Atom("u", 0)), u * q - hbar),
        Rule((Atom("r", 0), Atom("u", 0)), u * r - hbar),
    ]
    return RuleSet("weyl-pii", rules)


_BUILTIN_FACTORIES: dict[str, Callable[[], RuleSet]] = {
    "quantum-zv": quantum_zv_rules,
    "quantum-zu": quantum_zu_rules,
    "inverse-pq": inverse_rules,
    "commute-vu": commute_vu_rules,
    "commute-uu": commute_uu_rules,
    "weyl-pii": weyl_pii_rules,
}

BUILTIN_RULESET_NAMES = tuple(sorted(_BUILTIN_FACTORIES))


def builtin_ruleset(name: str) -> RuleSet:
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise LaxlabError(
            f"unknown rule set {name!r}; available: {', '.join(BUILTIN_RULESET_NAMES)}"
        ) from None
    return factory()
