"""Shared scaffolding for the tracked benchmarks (E24–E30).

Each tracked bench writes one ``BENCH_E<n>.json`` report and checks it
against the committed copy at the repo root.  Three environment knobs
drive all of them:

* ``ACE_BENCH_SHORT=1`` runs a CI-sized workload;
* ``ACE_BENCH_GUARD=1`` turns regressions against the committed baseline
  into failures (without it they print as warnings);
* ``ACE_BENCH_ARTIFACT_DIR`` sends the report, and any side artifacts,
  to that directory instead of the repo root (CI uploads it).

Some checks only compare runs of the same size.  When the sizes differ
the bench prints a ``guard skipped`` line instead of silently comparing
nothing, and a SHORT run never overwrites a committed full-size report.
"""

import json
import os
from typing import List, Optional

import pytest

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
GUARD = os.environ.get("ACE_BENCH_GUARD") == "1"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_baseline(name: str) -> dict:
    """The committed ``name`` report at the repo root ({} when absent)."""
    path = os.path.join(REPO_ROOT, name)
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def _size(short) -> str:
    return "SHORT" if short else "full-size"


def same_size(baseline: dict, report: dict, what: str) -> bool:
    """Whether ``baseline`` ran at the report's size; prints a visible
    ``guard skipped`` line for ``what`` when it did not."""
    if not baseline or baseline.get("short") == report["short"]:
        return bool(baseline)
    print(f"\nguard skipped: baseline is {_size(baseline.get('short'))}, "
          f"run is {_size(report['short'])} ({what})")
    return False


def enforce(name: str, problems: List[str]) -> None:
    """Fail on ``problems`` under ``ACE_BENCH_GUARD=1``, else warn."""
    if problems and GUARD:
        pytest.fail(f"regression vs committed {name}:\n  "
                    + "\n  ".join(problems))
    for problem in problems:
        print(f"\nWARNING (perf): {problem}")


def artifact_dir() -> Optional[str]:
    """``ACE_BENCH_ARTIFACT_DIR``, created on first use; None when unset."""
    path = os.environ.get("ACE_BENCH_ARTIFACT_DIR")
    if path:
        os.makedirs(path, exist_ok=True)
    return path


def write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report(name: str, report: dict) -> Optional[str]:
    """Write ``report`` to the artifact dir, else over the committed copy;
    returns the path written, or None when a SHORT run would have
    replaced a full-size baseline."""
    out_dir = artifact_dir()
    if out_dir:
        path = os.path.join(out_dir, name)
    else:
        committed = load_baseline(name)
        if report["short"] and committed and not committed.get("short"):
            print(f"\n{name} not written: a SHORT run does not replace the "
                  f"committed full-size report")
            return None
        path = os.path.join(REPO_ROOT, name)
    write_json(path, report)
    return path
