"""The README metric-name catalog stays in sync with the source tree.

Every metric name emitted anywhere under ``src/`` must appear in the
"Metric-name catalog" section of README.md.  A new counter added without
documentation fails here, naming the missing metric.
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


def test_every_metric_name_is_catalogued():
    readme = README.read_text(encoding="utf-8")
    assert "### Metric-name catalog" in readme
    catalog = readme.split("### Metric-name catalog", 1)[1]
    missing = sorted(
        name for name in _collect_metric_names() if f"`{name}`" not in catalog
        and name not in catalog
    )
    assert not missing, (
        "metric names emitted under src/ but absent from the README "
        f"metric-name catalog: {missing}"
    )
