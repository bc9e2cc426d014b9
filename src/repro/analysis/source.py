"""Parsed source files and ``# repro-lint`` suppression comments.

Every rule runs over :class:`SourceFile` objects, which carry the raw text, the
parsed AST and the file's suppression comments.  The driver keeps one
:class:`FileCache` per run, so every rule sees the same parsed file and each
file is read and parsed exactly once.

Suppression syntax
------------------
Two comment forms are recognised, modelled on pylint's but deliberately
smaller:

* ``# repro-lint: disable=RL003`` — trailing on a line: suppresses the named
  rule(s) for findings anchored to *that physical line* only.  Several codes
  may be given, comma-separated.
* ``# repro-lint: disable-file=RL002`` — anywhere in the file: suppresses the
  named rule(s) for the whole file.

Every suppression must justify itself to a reader (put the *why* in the same
comment or one next to it) and must actually suppress something: the driver
reports suppressions that matched no finding as ``RL005`` (unused
suppression), so stale annotations cannot accumulate as the code under them
improves.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<codes>RL\d{3}(?:\s*,\s*RL\d{3})*)"
)


@dataclass
class Suppression:
    """One parsed ``# repro-lint`` comment."""

    line: int
    codes: tuple[str, ...]
    file_level: bool
    #: Codes that suppressed at least one finding (the driver's RL005 check
    #: reports every code that stayed out of this set).
    used_codes: set[str] = field(default_factory=set)


def parse_suppressions(text: str) -> list[Suppression]:
    """Extract every suppression comment of ``text`` via the tokenizer.

    Tokenizing (rather than regex-scanning lines) keeps string literals that
    merely *mention* the marker — such as the ones in this package's own tests —
    from being misread as suppressions.
    """
    suppressions: list[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(
                code.strip() for code in match.group("codes").split(",")
            )
            suppressions.append(
                Suppression(
                    line=token.start[0],
                    codes=codes,
                    file_level=match.group("scope") == "disable-file",
                )
            )
    except tokenize.TokenError:  # pragma: no cover - file already parsed by ast
        pass
    return suppressions


class SourceFile:
    """One parsed Python file: text, AST, and suppression state for a run."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        #: Forward-slash form of the path, used by rules for scope matching
        #: (``"repro/service/" in source.module_path``).
        self.module_path = path.replace("\\", "/")
        self.text = text
        self.tree = ast.parse(text, filename=path)
        self.suppressions = parse_suppressions(text)

    def is_suppressed(self, line: int, code: str) -> bool:
        """Whether a ``code`` finding at ``line`` is suppressed — and mark it used.

        Marking happens on the query because suppression *consumption* is the
        ground truth of the RL005 unused-suppression check: a suppression that
        never matched a finding is dead weight and gets reported.
        """
        hit = False
        for suppression in self.suppressions:
            if code not in suppression.codes:
                continue
            if suppression.file_level or suppression.line == line:
                suppression.used_codes.add(code)
                hit = True
        return hit


class FileCache:
    """Per-run cache mapping path → parsed :class:`SourceFile` (or parse error)."""

    def __init__(self) -> None:
        self._files: dict[str, SourceFile] = {}
        self.errors: list[tuple[str, str]] = []

    def add_text(self, path: str, text: str) -> SourceFile | None:
        """Parse ``text`` as ``path`` and cache it; records syntax errors."""
        try:
            source = SourceFile(path, text)
        except SyntaxError as error:
            self.errors.append((path, f"syntax error: {error.msg} (line {error.lineno})"))
            return None
        self._files[path] = source
        return source

    def load(self, path: str) -> SourceFile | None:
        """Read and parse ``path`` from disk (cached; None on parse failure)."""
        if path in self._files:
            return self._files[path]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            self.errors.append((path, f"unreadable: {error}"))
            return None
        return self.add_text(path, text)
