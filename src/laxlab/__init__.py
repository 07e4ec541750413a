"""laxlab: symbolic and numeric audit bench for 2x2 zero-curvature
derivations of Painleve II type systems.

Subpackages:

* :mod:`laxlab.ncexpr` -- exact free-algebra kernel (expressions, parsing,
  rewriting).
* :mod:`laxlab.laxmat` -- 2x2 matrices over the kernel, Pauli bookkeeping,
  zero-curvature residuals, equation extraction, gauge transforms.
* :mod:`laxlab.catalog` -- the fixed library of matrix pairs, target
  equations, and rule sets that the verification pipelines consume.
* :mod:`laxlab.verify` -- the verification pipelines and their reports.
* :mod:`laxlab.numeric` -- complex-valued ODE integration harness for the
  classical-limit claims.
* :mod:`laxlab.cli` -- the ``laxlab`` command-line interface.
"""

from .ncexpr import (
    Atom,
    LaxlabError,
    NCExpr,
    ParseError,
    PassBudgetExhausted,
    QQi,
    Rule,
    RuleSet,
    anticommutator,
    builtin_ruleset,
    commutator,
    normalize,
    parse,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "LaxlabError",
    "NCExpr",
    "ParseError",
    "PassBudgetExhausted",
    "QQi",
    "Rule",
    "RuleSet",
    "anticommutator",
    "builtin_ruleset",
    "commutator",
    "normalize",
    "parse",
    "__version__",
]
