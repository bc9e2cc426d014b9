"""Base class shared by every repro-lint rule.

A rule is an object created fresh for each lint run.  The driver feeds it
every collected file through :meth:`Rule.check`, skipping files where
:meth:`Rule.applies_to` says no.

Rules *return* findings; they never filter them.  Suppression is the driver's
job, so a rule stays a pure function from source to diagnostics and the
suppression bookkeeping (including the unused-suppression check) lives in one
place.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile


class Rule:
    """One lint rule; subclasses set ``code``/``name`` and implement ``check``."""

    #: Rule identifier, e.g. ``"RL003"`` — the handle suppressions use.
    code: str = "RL000"
    #: Short kebab-case name shown by ``--list-rules``.
    name: str = "base"
    #: One-line description of the invariant the rule enforces.
    description: str = ""

    def applies_to(self, source: SourceFile) -> bool:
        """Whether ``source`` is in this rule's scope (default: every file)."""
        return True

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Per-file pass: yield findings for ``source``."""
        return ()

    def finding(self, source: SourceFile, line: int, message: str) -> Finding:
        return Finding(path=source.path, line=line, code=self.code, message=message)
