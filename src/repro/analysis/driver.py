"""The repro-lint driver: file collection, rule execution, suppressions, RL005.

The driver owns everything that is not rule logic:

* **collection** — walking the argument paths for ``*.py`` files (skipping
  ``__pycache__``, hidden directories, and anything under ``.git``);
* **execution** — one fresh instance of every rule per run, fed each parsed
  file (through the shared :class:`~repro.analysis.source.FileCache`);
* **suppression** — filtering findings whose line or file carries a matching
  ``# repro-lint: disable=`` comment, and counting what was filtered;
* **RL005** — reporting every suppression code that suppressed nothing (the
  unused-suppression check; RL005 findings are themselves unsuppressible, so
  dead annotations cannot be hidden by more annotations).

Tests lint in-memory snippets through :func:`lint_source`, which runs the
identical pipeline over one synthetic file — fixture paths like
``"src/repro/service/example.py"`` place a snippet in a rule's scope without
touching the working tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES
from repro.analysis.source import FileCache, SourceFile

#: Code of the driver-level unused-suppression check.
UNUSED_SUPPRESSION_CODE = "RL005"

_SKIP_DIRECTORIES = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", ".benchmarks"}


@dataclass
class LintReport:
    """The outcome of one lint run (what the CLI renders and the CI gate reads)."""

    findings: list[Finding] = field(default_factory=list)
    #: Findings filtered by suppression comments (kept for the JSON artifact —
    #: a reviewer can audit what the annotations are hiding).
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: ``(path, reason)`` for files that could not be read or parsed.  Broken
    #: files fail the run: a linter that skips unparsable code silently would
    #: report "clean" exactly when the tree is at its worst.
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def as_dict(self) -> dict[str, object]:
        """The JSON report shape uploaded by CI (schema version 1)."""
        return {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": [finding.as_dict() for finding in self.suppressed],
            "errors": [
                {"path": path, "reason": reason} for path, reason in self.errors
            ],
        }


def iter_python_files(paths: list[str]) -> list[str]:
    """Every ``*.py`` file under ``paths`` (files pass through, dirs walk)."""
    collected: list[str] = []
    for root in paths:
        if os.path.isfile(root):
            collected.append(root)
            continue
        for directory, subdirectories, filenames in os.walk(root):
            subdirectories[:] = sorted(
                name
                for name in subdirectories
                if name not in _SKIP_DIRECTORIES and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    collected.append(os.path.join(directory, filename))
    return collected


def _run(sources: list[SourceFile], cache: FileCache) -> LintReport:
    """Execute every rule over ``sources`` and apply suppressions."""
    report = LintReport(files_checked=len(sources))
    report.errors.extend(cache.errors)
    by_path = {source.path: source for source in sources}
    raw: list[Finding] = []
    rules = [rule_class() for rule_class in ALL_RULES]
    for rule in rules:
        for source in sources:
            if rule.applies_to(source):
                raw.extend(rule.check(source))
    seen: set[Finding] = set()
    for finding in raw:
        if finding in seen:
            continue
        seen.add(finding)
        source = by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding.line, finding.code):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    for source in sources:
        for suppression in source.suppressions:
            for code in suppression.codes:
                if code in suppression.used_codes:
                    continue
                scope = "file-level " if suppression.file_level else ""
                report.findings.append(
                    Finding(
                        path=source.path,
                        line=suppression.line,
                        code=UNUSED_SUPPRESSION_CODE,
                        message=(
                            f"unused {scope}suppression of {code}: no {code} finding "
                            "was anchored here — remove the stale annotation"
                        ),
                    )
                )
    report.findings.sort()
    report.suppressed.sort()
    return report


def run_lint(paths: list[str]) -> LintReport:
    """Lint every Python file under ``paths`` with the full rule set."""
    cache = FileCache()
    sources = [
        source
        for path in iter_python_files(paths)
        if (source := cache.load(path)) is not None
    ]
    return _run(sources, cache)


def lint_source(text: str, path: str = "src/repro/example.py") -> LintReport:
    """Lint one in-memory snippet as if it lived at ``path``.

    This is the fixture surface of the test suite: rule scoping keys off the
    path, so a snippet placed at ``"src/repro/service/example.py"`` is checked
    by the lock-discipline rule while the same text at ``"examples/demo.py"``
    is not.  Nothing is read from or written to disk.
    """
    cache = FileCache()
    source = cache.add_text(path, text)
    sources = [source] if source is not None else []
    return _run(sources, cache)
