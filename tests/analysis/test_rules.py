"""Per-rule fixtures: each RL00x fires on a known-bad snippet, stays silent on
the known-good twin.

Snippets are linted in memory through :func:`repro.analysis.lint_source` with
synthetic paths that place them in the rule's scope — nothing deliberately
broken ever lives on disk, so the repository's own self-lint (see
``test_self_check.py``) stays clean.
"""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source

SERVICE_PATH = "src/repro/service/example.py"
LIBRARY_PATH = "src/repro/core/example.py"
INIT_PATH = "src/repro/core/example/__init__.py"


def _findings(text: str, path: str = LIBRARY_PATH, code: str | None = None):
    report = lint_source(textwrap.dedent(text), path=path)
    findings = report.findings
    if code is not None:
        findings = [finding for finding in findings if finding.code == code]
    return findings


class TestRL002LockDiscipline:
    def test_blocking_close_under_lock_fires(self):
        (finding,) = _findings(
            """
            class Pool:
                def evict(self):
                    with self._lock:
                        self._entry.session.close()
            """,
            path=SERVICE_PATH,
            code="RL002",
        )
        assert ".close()" in finding.message

    def test_close_after_releasing_lock_is_clean(self):
        assert (
            _findings(
                """
                class Pool:
                    def evict(self):
                        with self._lock:
                            doomed = self._entry
                        doomed.session.close()
                """,
                path=SERVICE_PATH,
                code="RL002",
            )
            == []
        )

    def test_queue_get_under_lock_fires(self):
        (finding,) = _findings(
            """
            class Worker:
                def pull(self):
                    with self._lock:
                        return self._result_queue.get(timeout=1)
            """,
            path=SERVICE_PATH,
            code="RL002",
        )
        assert ".get()" in finding.message

    def test_dict_get_and_str_join_under_lock_are_clean(self):
        assert (
            _findings(
                """
                class Registry:
                    def describe(self):
                        with self._lock:
                            slot = self._datasets.get("name")
                            return ", ".join(self._datasets)
                """,
                path=SERVICE_PATH,
                code="RL002",
            )
            == []
        )

    def test_guarded_write_outside_lock_fires(self):
        (finding,) = _findings(
            """
            _GUARDED_BY = {"_entries": "_lock"}

            class Pool:
                def forget(self, key):
                    self._entries.pop(key, None)
                    self._entries = {}
            """,
            path=SERVICE_PATH,
            code="RL002",
        )
        assert "'self._entries'" in finding.message

    def test_guarded_write_under_lock_and_in_locked_helper_are_clean(self):
        assert (
            _findings(
                """
                _GUARDED_BY = {"_entries": "_lock", "_pending": ("_lock", "_idle")}

                class Pool:
                    def __init__(self):
                        self._entries = {}
                        self._pending = 0

                    def add(self, key, value):
                        with self._lock:
                            self._entries[key] = value

                    def bump(self):
                        with self._idle:
                            self._pending += 1

                    def _reset_locked(self):
                        self._entries = {}
                """,
                path=SERVICE_PATH,
                code="RL002",
            )
            == []
        )

    def test_rule_is_scoped_to_service_and_parallel(self):
        text = """
        class Pool:
            def evict(self):
                with self._lock:
                    self._entry.close()
        """
        assert _findings(text, path=SERVICE_PATH, code="RL002") != []
        assert _findings(text, path="src/repro/core/engine/parallel.py", code="RL002") != []
        assert _findings(text, path=LIBRARY_PATH, code="RL002") == []


class TestRL003ExceptionTaxonomy:
    def test_swallowing_broad_except_fires(self):
        (finding,) = _findings(
            """
            def shutdown(worker):
                try:
                    worker.stop()
                except Exception:
                    pass
            """,
            code="RL003",
        )
        assert "swallows" in finding.message

    def test_bare_except_fires(self):
        (finding,) = _findings(
            """
            def shutdown(worker):
                try:
                    worker.stop()
                except:
                    pass
            """,
            code="RL003",
        )
        assert "bare" in finding.message

    def test_broad_except_that_logs_or_reraises_is_clean(self):
        assert (
            _findings(
                """
                import traceback

                def shutdown(worker, log):
                    try:
                        worker.stop()
                    except Exception as error:
                        log.warning("stop failed: %s", error)
                    try:
                        worker.kill()
                    except BaseException:
                        detail = traceback.format_exc()
                    try:
                        worker.reap()
                    except Exception:
                        raise
                """,
                code="RL003",
            )
            == []
        )

    def test_narrow_except_is_clean(self):
        assert (
            _findings(
                """
                def shutdown(worker):
                    try:
                        worker.stop()
                    except (OSError, ValueError):
                        pass
                """,
                code="RL003",
            )
            == []
        )

    def test_untyped_raise_fires(self):
        (finding,) = _findings(
            """
            def check(x):
                if x < 0:
                    raise RuntimeError("negative")
            """,
            code="RL003",
        )
        assert "'RuntimeError'" in finding.message

    def test_taxonomy_raises_are_clean(self):
        assert (
            _findings(
                """
                from repro.exceptions import DetectionError

                class LocalError(DetectionError):
                    pass

                def check(x):
                    if x < 0:
                        raise ValueError("negative")
                    if x == 0:
                        raise DetectionError("zero")
                    if x == 1:
                        raise LocalError("one")
                """,
                code="RL003",
            )
            == []
        )

    def test_test_code_is_out_of_scope(self):
        assert (
            _findings(
                "def f():\n    raise RuntimeError('fine in tests')\n",
                path="tests/test_example.py",
                code="RL003",
            )
            == []
        )


class TestRL004ApiHygiene:
    def test_unfrozen_value_dataclass_fires(self):
        (finding,) = _findings(
            """
            from dataclasses import dataclass

            @dataclass
            class DetectionQuery:
                alpha: float = 0.1
            """,
            code="RL004",
        )
        assert "'DetectionQuery'" in finding.message and "frozen" in finding.message

    def test_frozen_value_dataclass_and_mutable_service_class_are_clean(self):
        assert (
            _findings(
                """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class DetectionQuery:
                    alpha: float = 0.1

                @dataclass
                class TenantState:
                    in_flight: int = 0
                """,
                code="RL004",
            )
            == []
        )

    def test_mutable_default_argument_fires(self):
        (finding,) = _findings(
            "def f(items=[], *, mapping={}):\n    return items, mapping\n",
            code="RL004",
        )
        assert "mutable default" in finding.message

    def test_unguarded_platform_import_fires(self):
        (finding,) = _findings("import fcntl\n", code="RL004")
        assert "'fcntl'" in finding.message

    def test_guarded_platform_import_is_clean(self):
        assert (
            _findings(
                """
                try:
                    import fcntl as _fcntl
                except ImportError:
                    _fcntl = None
                """,
                code="RL004",
            )
            == []
        )

    def test_phantom_export_in_all_fires(self):
        (finding,) = _findings(
            "from os.path import join\n\n__all__ = ['join', 'missing']\n",
            path=INIT_PATH,
            code="RL004",
        )
        assert "'missing'" in finding.message

    def test_import_missing_from_all_fires(self):
        (finding,) = _findings(
            "from os.path import join, split\n\n__all__ = ['join']\n",
            path=INIT_PATH,
            code="RL004",
        )
        assert "'split'" in finding.message

    def test_consistent_init_is_clean(self):
        assert (
            _findings(
                """
                from os.path import join, split as _split

                __all__ = ['join', 'helper']

                def helper():
                    return _split
                """,
                path=INIT_PATH,
                code="RL004",
            )
            == []
        )
