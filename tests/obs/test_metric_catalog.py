"""The README metric-name catalog stays in sync with the source tree.

Every metric name emitted anywhere under ``src/`` must appear in the
"Metric-name catalog" section of README.md, and every name the catalog
lists must still be emitted.  A new counter added without documentation,
or a catalog row left behind by a deleted counter, fails here, naming the
metric.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
README = REPO_ROOT / "README.md"

# Literal names at emission sites: obs.inc("…"), obs.set_gauge("…"),
# obs.observe("…"), registry.counter("…")/gauge("…")/histogram("…").
# f-strings are captured too; their {placeholder} parts are normalised
# to the catalog's <name> convention below.
_CALL = re.compile(
    r"\.(?:inc|set_gauge|observe|counter|gauge|histogram)\(\s*f?\"([^\"\n]+)\""
)
# The shot-accounting path in runtime/execute.py picks one of several
# literals and emits it through a variable, so the call-site regex
# cannot see them.
_SHOT_PATH = re.compile(r"\"(runtime\.shots\.[a-z_]+)\"")


def _collect_metric_names() -> set:
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in _CALL.finditer(text):
            names.add(re.sub(r"\{[^}]*\}", "<name>", match.group(1)))
        for match in _SHOT_PATH.finditer(text):
            names.add(match.group(1))
    return names


def test_sources_emit_metrics():
    # Guard the scanner itself: if a refactor moves every emission site
    # out of reach of the regexes, this fails before the catalog check
    # silently passes on an empty set.
    names = _collect_metric_names()
    assert len(names) >= 40
    assert "runtime.shots.fastpath" in names
    assert "runtime.scheduler.runs" in names
    assert "ledger.writes" in names
    assert "run.info" in names


def _catalog() -> str:
    readme = README.read_text(encoding="utf-8")
    assert "### Metric-name catalog" in readme
    return readme.split("### Metric-name catalog", 1)[1].split("\n## ", 1)[0]


def _catalogued_names() -> set:
    """The backticked names in the first column of the catalog table."""
    names = set()
    for line in _catalog().splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_every_metric_name_is_catalogued():
    catalog = _catalog()
    missing = sorted(
        name for name in _collect_metric_names() if f"`{name}`" not in catalog
        and name not in catalog
    )
    assert not missing, (
        "metric names emitted under src/ but absent from the README "
        f"metric-name catalog: {missing}"
    )


def test_every_catalogued_name_is_emitted():
    catalogued = _catalogued_names()
    assert len(catalogued) >= 40
    stale = sorted(catalogued - _collect_metric_names())
    assert not stale, (
        "metric names in the README metric-name catalog that nothing under "
        f"src/ emits any more: {stale}"
    )
