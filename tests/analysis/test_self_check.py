"""The repository lints itself clean — the invariant the CI gate enforces.

This is the test that makes the rules *binding*: a change that re-introduces a
swallowed exception, drops a SearchStats field from a serde path, writes a
guarded attribute outside its lock, or lets ``__all__`` drift will fail here
(and in the blocking ``static-analysis`` CI job) until it is fixed or carries
a justified suppression.
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


def test_rl001_anchors_are_present_in_the_real_tree():
    """Guard against the completeness rule going silently inert.

    RL001 only compares anchors it has seen; if ``SearchStats`` or its serde
    functions were renamed, the rule would pass vacuously.  Pin the anchor
    names so a rename shows up as a test failure with a pointer to update the
    rule alongside the code.
    """
    from repro.analysis.rules.rl001_stats import StatsCompletenessRule
    from repro.analysis.source import FileCache

    cache = FileCache()
    rule = StatsCompletenessRule()
    for relative in (
        "src/repro/core/stats.py",
        "src/repro/core/serialization.py",
        "src/repro/core/engine/counting.py",
        "src/repro/core/pattern_graph.py",
    ):
        source = cache.load(str(REPO_ROOT / relative))
        assert source is not None, relative
        list(rule.check(source))
    assert rule._stats_class is not None
    assert rule._absorb is not None
    assert rule._as_dict is not None
    assert rule._from_dict is not None
    assert rule._snapshot is not None
    assert rule._publish is not None


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
