"""The repro-lint rule registry.

Adding a rule is three steps: write the visitor module (subclass
:class:`~repro.analysis.rules.base.Rule`, set ``code``/``name``/
``description``), import it here, and append the class to ``ALL_RULES``.
The driver instantiates each class fresh per run.
"""

from __future__ import annotations

from repro.analysis.rules.base import Rule
from repro.analysis.rules.rl002_locks import LockDisciplineRule
from repro.analysis.rules.rl003_exceptions import ExceptionTaxonomyRule
from repro.analysis.rules.rl004_api import ApiHygieneRule

__all__ = [
    "ALL_RULES",
    "ApiHygieneRule",
    "ExceptionTaxonomyRule",
    "LockDisciplineRule",
    "Rule",
]

ALL_RULES: tuple[type[Rule], ...] = (
    LockDisciplineRule,
    ExceptionTaxonomyRule,
    ApiHygieneRule,
)
