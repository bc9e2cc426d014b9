"""The repository lints itself clean — the invariant the CI gate enforces.

This is the test that makes the rules *binding*: a change that re-introduces a
swallowed exception, writes a guarded attribute outside its lock, or lets
``__all__`` drift will fail here (and in the blocking ``static-analysis`` CI
job) until it is fixed or carries a justified suppression.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_lints_clean():
    report = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.errors == [], report.errors
    assert report.findings == [], f"repro-lint found:\n{rendered}"
    assert report.files_checked > 100  # the walk really covered the tree


def test_rl002_covers_the_session_pool():
    """Guard against the lock rule going silently inert on the service layer.

    The session pool is real cross-thread state; RL002 is only binding there
    if (a) the rule's scope matches the module path and (b) the module
    actually declares its guarded attributes.  Either drifting — a file move,
    or the ``_GUARDED_BY`` registry being deleted in a refactor — must fail
    loudly, not leave unguarded writes unchecked.
    """
    from repro.analysis.rules.rl002_locks import LockDisciplineRule, _guarded_registry
    from repro.analysis.source import FileCache

    cache = FileCache()
    rule = LockDisciplineRule()
    source = cache.load(str(REPO_ROOT / "src/repro/service/pool.py"))
    assert source is not None
    assert rule.applies_to(source), "RL002 scope no longer matches service/pool.py"
    registry = _guarded_registry(source.tree)
    assert registry.get("_closed") == ("_lock",)
    assert registry.get("_entries") == ("_lock",)
