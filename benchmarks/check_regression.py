"""Compare the engine throughput artifact against its committed baseline.

``BENCH_engine.json`` records, per (workload, problem, algorithm), the engine's
speedup over the naive per-pattern counting path measured *on the same machine
in the same run*.  That ratio is largely hardware-independent, so it is the
quantity this checker guards: a drop of more than ``tolerance`` (default 20%)
relative to the committed baseline ratio fails the check, which catches changes
that slow the engine down without having to compare absolute seconds across
machines.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py     # regenerate
    python benchmarks/check_regression.py                           # compare

The check is also wired into the opt-in ``bench_smoke`` pytest marker
(``pytest benchmarks -m bench_smoke``) so tier-1 test runs stay fast.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO_ROOT / "BENCH_engine.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_engine_baseline.json"

#: Maximum tolerated relative drop in the engine-vs-naive speedup.
DEFAULT_TOLERANCE = 0.20


def entry_key(entry: dict) -> tuple[str, str, str]:
    return (entry["workload"], entry["problem"], entry["algorithm"])


def check_regression(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Return a list of regression descriptions (empty when the check passes)."""
    problems: list[str] = []
    current_entries = {entry_key(entry): entry for entry in current.get("workloads", [])}
    baseline_entries = {entry_key(entry): entry for entry in baseline.get("workloads", [])}
    if not baseline_entries:
        problems.append("baseline artifact contains no workload entries")
    for key, base in baseline_entries.items():
        now = current_entries.get(key)
        if now is None:
            problems.append(f"{'/'.join(key)}: missing from the current artifact")
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if now["speedup"] < floor:
            problems.append(
                f"{'/'.join(key)}: speedup {now['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x - {tolerance:.0%})"
            )
    summary = current.get("summary", {})
    if not summary.get("meets_target", False):
        problems.append(
            f"current artifact misses the k-sweep target: min speedup "
            f"{summary.get('k_sweep_min_speedup', 0.0):.2f}x < "
            f"{summary.get('target_speedup', 0.0):.1f}x"
        )
    return problems


def load_artifact(path: Path) -> dict:
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=Path, default=DEFAULT_CURRENT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    args = parser.parse_args(argv)

    if not args.current.exists():
        print(f"current artifact {args.current} not found; run bench_engine_throughput.py first")
        return 2
    if not args.baseline.exists():
        print(f"baseline artifact {args.baseline} not found")
        return 2
    problems = check_regression(
        load_artifact(args.current), load_artifact(args.baseline), args.tolerance
    )
    if problems:
        print("benchmark regression check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"throughput regression check passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
