"""Human-readable profile table (the ``--profile`` stderr output).

Renders a metrics snapshot into aligned sections that mirror the paper's
examples: parse (Ex. 3), passes (Ex. 4), runtime + intrinsics (Ex. 5),
and the resilience counters from PR 1.  Unrecognised metrics are listed
verbatim at the end so nothing recorded is ever hidden.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import parse_metric_key
from repro.obs.observer import Observer


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.6f}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)


def _table(rows: List[Tuple[str, ...]], header: Tuple[str, ...]) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in rows:
        lines.append("  " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return lines


def _labeled(
    metrics: Dict[str, object], name: str, label: str
) -> Dict[str, object]:
    """Collect ``name{label=X}`` entries keyed by X, removing them."""
    out: Dict[str, object] = {}
    for key in list(metrics):
        base, labels = parse_metric_key(key)
        if base == name and label in labels:
            out[labels[label]] = metrics.pop(key)
    return out


def _section(title: str, lines: Iterable[str]) -> List[str]:
    body = list(lines)
    if not body:
        return []
    return [f"-- {title} --"] + body


def render_profile(observer: Observer, title: str = "qir profile") -> str:
    """Multi-line profile table for an *enabled* observer ('' if empty)."""
    snapshot = observer.snapshot()
    if not snapshot:
        return ""
    counters = dict(snapshot.get("counters", {}))
    gauges = dict(snapshot.get("gauges", {}))
    histograms = dict(snapshot.get("histograms", {}))
    out: List[str] = [f"== {title} =="]

    # -- parse (Ex. 3) --------------------------------------------------------
    parse_lines: List[str] = []
    for key in sorted(k for k in list(counters) if k.startswith("parse.")):
        parse_lines.append(f"  {key[len('parse.'):]:<22}{_fmt(counters.pop(key))}")
    for key in sorted(k for k in list(gauges) if k.startswith("parse.")):
        parse_lines.append(f"  {key[len('parse.'):]:<22}{_fmt(gauges.pop(key))}")
    out += _section("parse", parse_lines)

    # -- specialization (fusion / distribution cache) -------------------------
    # Popped *before* the compile & cache section, which sweeps the whole
    # plan.* / cache.* namespaces into one flat listing.
    spec_lines: List[str] = []
    _SPEC_PREFIXES = ("plan.fusion.", "cache.distribution.")
    for key in sorted(
        k for k in list(counters) if k.startswith(_SPEC_PREFIXES)
    ):
        spec_lines.append(f"  {key:<28}{_fmt(counters.pop(key))}")
    out += _section("specialization", spec_lines)

    # -- compile & cache (plan / QirSession) ----------------------------------
    cache_lines: List[str] = []
    for key in sorted(
        k for k in list(counters) if k.startswith("cache.") or k.startswith("plan.")
    ):
        cache_lines.append(f"  {key:<28}{_fmt(counters.pop(key))}")
    for key in sorted(k for k in list(histograms) if k.startswith("plan.")):
        h = histograms.pop(key)
        cache_lines.append(
            f"  {key:<28}count={h['count']} mean={_fmt(h['mean'])}s"
        )
    out += _section("compile & cache", cache_lines)

    # -- passes (Ex. 4) -------------------------------------------------------
    runs = _labeled(counters, "passes.runs", "pass")
    changed = _labeled(counters, "passes.changed", "pass")
    seconds = _labeled(counters, "passes.seconds", "pass")
    rewrites = _labeled(counters, "passes.instructions_delta_abs", "pass")
    if runs:
        rows = []
        for name in sorted(runs, key=lambda n: -float(seconds.get(n, 0.0))):
            rows.append(
                (
                    name,
                    _fmt(runs[name]),
                    _fmt(changed.get(name, 0)),
                    f"{float(seconds.get(name, 0.0)) * 1e3:.3f}",
                    _fmt(rewrites.get(name, 0)),
                )
            )
        lines = _table(rows, ("pass", "runs", "changed", "time(ms)", "instr-delta"))
        for key in sorted(k for k in list(gauges) if k.startswith("passes.")):
            lines.append(f"  {key[len('passes.'):]:<22}{_fmt(gauges.pop(key))}")
        out += _section("passes", lines)

    # -- budget busts (continuous-performance gate) ---------------------------
    bust_lines: List[str] = []
    for key in sorted(k for k in list(counters) if k.startswith("pass.budget_bust")):
        _, labels = parse_metric_key(key)
        count = counters.pop(key)
        bust_lines.append(
            f"  WARNING pass '{labels.get('pass', '?')}' busted its "
            f"{labels.get('kind', '?')} budget x{_fmt(count)}"
        )
    out += _section("budget busts", bust_lines)

    # -- scheduler (execute phase) --------------------------------------------
    sched_runs = _labeled(counters, "runtime.scheduler.runs", "scheduler")
    sched_lines: List[str] = []
    for name in sorted(sched_runs):
        sched_lines.append(f"  runs[{name}]{'':<14}{_fmt(sched_runs[name])}")
    for key in sorted(k for k in list(counters) if k.startswith("runtime.scheduler.")):
        short = key[len("runtime.scheduler."):]
        sched_lines.append(f"  {short:<22}{_fmt(counters.pop(key))}")
    out += _section("scheduler", sched_lines)

    # -- supervision (process-scheduler worker watchdog) ----------------------
    sup_lines: List[str] = []
    for key in sorted(k for k in list(counters) if k.startswith("scheduler.worker.")):
        short = key[len("scheduler.worker."):]
        sup_lines.append(f"  {short:<22}{_fmt(counters.pop(key))}")
    out += _section("supervision", sup_lines)

    # -- runtime (Ex. 5) ------------------------------------------------------
    runtime_lines: List[str] = []
    for key in sorted(k for k in list(counters) if k.startswith("runtime.shots")):
        runtime_lines.append(f"  {key[len('runtime.'):]:<22}{_fmt(counters.pop(key))}")
    for key in sorted(k for k in list(gauges) if k.startswith("runtime.")):
        runtime_lines.append(f"  {key[len('runtime.'):]:<22}{_fmt(gauges.pop(key))}")
    for key in sorted(k for k in list(histograms) if k.startswith("runtime.")):
        h = histograms.pop(key)
        runtime_lines.append(
            f"  {key[len('runtime.'):]:<22}count={h['count']} "
            f"mean={_fmt(h['mean'])}s max={_fmt(h['max'])}s"
        )
    out += _section("runtime", runtime_lines)

    # -- intrinsics (Ex. 5) ---------------------------------------------------
    calls = _labeled(counters, "runtime.intrinsic_calls", "intrinsic")
    times = _labeled(counters, "runtime.intrinsic_seconds", "intrinsic")
    if calls:
        rows = [
            (
                name,
                _fmt(calls[name]),
                f"{float(times.get(name, 0.0)) * 1e3:.3f}",
            )
            for name in sorted(calls, key=lambda n: -float(times.get(n, 0.0)))
        ]
        out += _section("intrinsics", _table(rows, ("intrinsic", "calls", "time(ms)")))

    # -- resilience -----------------------------------------------------------
    res_lines: List[str] = []
    for key in sorted(k for k in list(counters) if k.startswith("resilience.")):
        res_lines.append(f"  {key[len('resilience.'):]:<22}{_fmt(counters.pop(key))}")
    out += _section("resilience", res_lines)

    # -- anything else --------------------------------------------------------
    other: List[str] = []
    for key in sorted(counters):
        other.append(f"  {key:<40}{_fmt(counters[key])}")
    for key in sorted(gauges):
        other.append(f"  {key:<40}{_fmt(gauges[key])}")
    for key in sorted(histograms):
        h = histograms[key]
        other.append(f"  {key:<40}count={h['count']} mean={_fmt(h['mean'])}")
    out += _section("other", other)

    if len(out) == 1:
        return ""
    return "\n".join(out)
