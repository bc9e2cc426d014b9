"""Benchmark entry point: run one workload in a fresh, pinned interpreter.

    python3 perfbench/run.py --workload cold_audit --seed 1 --seconds 20 --trace 0

Workloads: cold_audit, tuning_session, service_closed_loop, sharded_sweep.
``--trace 1`` runs the traced variant (per-layer metrics); ``--dry-run``
prints a workload's request mix without running it; ``--tiny`` shrinks every
input so the benchmark's own tests run each workload in seconds.

This launcher only prepares the environment: it derives ``PYTHONHASHSEED``
from the seed (so set and dict order repeat within a seed), pins the
OpenMP/BLAS thread pools to one thread, puts ``src`` on the path, and runs
``perfbench.bench`` in a child interpreter, whose output and exit code it
passes on.  Every process the run starts is waited for before the launcher
exits: the launcher adopts orphaned descendants (Linux child subreaper), so a
helper that outlives the child -- multiprocessing's resource tracker ends
only once the child has gone -- is reaped here, and one that overstays a
short grace period is killed first.  Run from the root of a checkout; it
exits non-zero without a result when the program's sources are missing.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The child must finish, and its leftovers be reaped, well inside the 180 s a
#: run may take.
TIMEOUT_S = 165
#: Seconds a leftover descendant gets to end by itself once the child is gone.
GRACE_S = 5.0
_PR_SET_CHILD_SUBREAPER = 36


def child_environment(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 4_294_967_296)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _seed_of(argv: list[str]) -> int:
    for index, value in enumerate(argv):
        if value == "--seed" and index + 1 < len(argv):
            return int(argv[index + 1])
        if value.startswith("--seed="):
            return int(value.split("=", 1)[1])
    return 0


def _become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, so it can reap them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: the process group still bounds the run
        pass


def _children() -> list[int]:
    """Live or unreaped direct children of this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if parent == me:
            found.append(int(entry))
    return found


def _kill(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except OSError:
        pass
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def _reap_leftovers(group: int, grace: float) -> None:
    """Wait until every descendant of the finished child has ended and been reaped.

    Leftovers get ``grace`` seconds to end by themselves; then the child's
    process group, and every adopted process outside it, is killed.
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            _kill(group)
        time.sleep(0.005)


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through main, which stops the run


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        seed = _seed_of(argv)
    except ValueError:
        print("perfbench: --seed must be an integer", file=sys.stderr)
        return 2
    command = [sys.executable, "-m", "perfbench.bench", *argv]
    _become_subreaper()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # Its own process group, so a run that overstays is stopped with its workers.
    child = subprocess.Popen(command, cwd=ROOT, env=child_environment(seed),
                             start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill(child.pid)
        child.wait()
        print(f"perfbench: run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    except BaseException:  # interrupted: stop the run with everything it started
        _kill(child.pid)
        child.wait()
        raise
    finally:
        _reap_leftovers(child.pid, GRACE_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
