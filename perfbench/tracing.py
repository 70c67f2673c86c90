"""Spans around the calls into nomajam's modules, recorded from outside.

The benchmark replaces a public function where its caller looks it up (for
example ``nomajam.harness.best_response`` and ``nomajam.game.best_response``,
because the modules import names directly) with a wrapper that records one
span per call: a name, start and end times, and the span that was open when
the call began.  Spans stay in compact arrays in memory until the run ends;
``layer_metrics`` turns them into the per-layer numbers.  Nothing under
``src/`` is edited, and ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  "Class.method" attributes are wrapped on
# the class, so every instance is traced.  Several lookups may share a name.
TARGETS = (
    ("nomajam.harness", "run_seed", "harness.run_seed"),
    ("nomajam.harness", "export_csv", "harness.export_csv"),
    ("nomajam.harness", "TwoCellEnv.step", "harness.TwoCellEnv.step"),
    ("nomajam.harness", "draw_channels", "channel.draw_channels"),
    ("nomajam.harness", "sinr_vector", "rates.sinr_vector"),
    ("nomajam.harness", "rates_from_sinr", "rates.rates_from_sinr"),
    ("nomajam.harness", "bs_utility", "rates.bs_utility"),
    ("nomajam.harness", "objective_p2", "rates.objective_p2"),
    ("nomajam.harness", "jammer_utility", "rates.jammer_utility"),
    ("nomajam.harness", "best_response", "jammer.best_response"),
    ("nomajam.harness", "analysis_report", "game.analysis_report"),
    ("nomajam.harness", "hot_boot", "learn.hot_boot"),
    ("nomajam.jammer", "JammerAgent.step", "jammer.JammerAgent.step"),
    ("nomajam.learn.agents", "TabularAgent.act", "learn.TabularAgent.act"),
    ("nomajam.learn.agents", "TabularAgent.learn", "learn.TabularAgent.learn"),
    ("nomajam.learn.agents", "DqnAgent.act", "learn.DqnAgent.act"),
    ("nomajam.learn.agents", "DqnAgent.learn", "learn.DqnAgent.learn"),
    ("nomajam.learn.agents", "dqn_train_step", "learn.dqn_train_step"),
    ("nomajam.game", "best_response", "jammer.best_response"),
    ("nomajam.game", "mood_classify", "game.mood_classify"),
    ("nomajam.game", "GridEvaluator.u_matrix", "game.GridEvaluator.u_matrix"),
    ("nomajam.game", "GridEvaluator.entry", "game.GridEvaluator.entry"),
    ("nomajam.game", "find_ne_l1", "game.find_ne"),
    ("nomajam.game", "find_ne_l2", "game.find_ne"),
    ("nomajam.game", "find_ne_l3", "game.find_ne"),
    ("nomajam.game", "monotonicity_check", "game.monotonicity_check"),
    ("nomajam.game", "slope_sign_disagreements", "game.slope_sign_disagreements"),
)

BR = "jammer.best_response"
# Spans whose follower solves are counted as "<name>.br_calls".
BR_GROUPS = (
    "game.mood_classify",
    "game.GridEvaluator.u_matrix",
    "game.find_ne",
    "game.monotonicity_check",
    "game.slope_sign_disagreements",
)

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "jammer.best_response.calls": "count",
    "jammer.best_response.self_s": "s",
    "jammer.best_response.us_per_call.p50": "us",
    "jammer.best_response.us_per_call.tail": "us",
    "jammer.best_response.clamped_ratio": "ratio",
    "jammer.JammerAgent.step.self_s": "s",
    **{f"{g}.{k}": u for g in BR_GROUPS for k, u in (("s", "s"), ("br_calls", "count"))},
    "game.analysis_report.self_s": "s",
    "game.grid_profiles": "count",
    "game.br_calls_per_grid_profile": "ratio",
    "game.GridEvaluator.entry.calls": "count",
    "game.GridEvaluator.entry.hit_ratio": "ratio",
    "harness.TwoCellEnv.step.calls": "count",
    "harness.TwoCellEnv.step.self_s": "s",
    "rates.calls": "count",
    "rates.self_s": "s",
    "learn.calls": "count",
    "learn.TabularAgent.act.self_s": "s",
    "learn.TabularAgent.learn.self_s": "s",
    "learn.dqn_train_step.calls": "count",
    "learn.dqn_train_step.self_s": "s",
    "learn.dqn_train_step.us_per_call.p50": "us",
    "learn.DqnAgent.act.self_s": "s",
    "learn.DqnAgent.learn.self_s": "s",
    "learn.hot_boot.s": "s",
    "harness.export_csv.s": "s",
    "harness.export_csv.bytes": "bytes",
    "harness.run_seed.calls": "count",
    "harness.run_seed.s.p50": "s",
    "harness.run_seed.s.tail": "s",
    "channel.draw_channels.calls": "count",
    "channel.draw_channels.s": "s",
    "harness.csv_digest_match": "count",
    "trace.spans": "count",
    "trace.output_mismatches": "count",
    "trace.overhead.units_per_s": "%",
    "trace.overhead.peak_rss_mb": "MB",
    "trace.overhead.setup_s": "s",
}


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it.

    With fewer than 40 samples none qualifies and the maximum (100) is used.
    """
    for q in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 100.0


def p50_and_tail(values) -> tuple[float, float]:
    if len(values) == 0:
        return 0.0, 0.0
    v = np.asarray(values, dtype=float)
    return float(np.percentile(v, 50)), float(np.percentile(v, tail_percentile(len(v))))


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span; installed wrappers keep recording."""
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]
        self._stack[:] = [-1]
        self.clamped = 0
        self.export_bytes = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _after_best_response(self, args, kwargs, out) -> None:
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        if out.p_j_star <= 0.0 or out.p_j_star >= cfg.p_j_max:
            self.clamped += 1

    def _after_export(self, args, kwargs, out) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.export_bytes += os.path.getsize(path)

    def install(self) -> None:
        hooks = {BR: self._after_best_response,
                 "harness.export_csv": self._after_export}
        for modname, attr, name in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
        for m in self.missing:
            print(f"perfbench: trace target {m} not found; its metrics read 0",
                  file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.missing.clear()

    def layer_metrics(self, grid_profiles: int) -> dict[str, float]:
        """Aggregate the recorded spans into the per-layer metrics."""
        n = len(self.start)
        names = self.names
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def ids(prefix: str) -> list[int]:
            return [i for i, nm in enumerate(names) if nm == prefix or nm.startswith(prefix + ".")]

        def mask(prefix: str) -> np.ndarray:
            return np.isin(name, ids(prefix))

        def calls(prefix: str) -> float:
            return float(mask(prefix).sum())

        def total(prefix: str) -> float:
            return float(dur[mask(prefix)].sum())

        def self_s(prefix: str) -> float:
            return float(self_time[mask(prefix)].sum())

        # Follower solves inside each group span, and entry spans that solved.
        br_in = dict.fromkeys(BR_GROUPS, 0)
        group_of = {self._ids[g]: g for g in BR_GROUPS if g in self._ids}
        entry_id = self._ids.get("game.GridEvaluator.entry")
        report_id = self._ids.get("game.analysis_report")
        missed_entries: set[int] = set()
        br_in_report = 0
        for sid in np.flatnonzero(mask(BR)):
            p = int(parent[sid])
            if p >= 0 and name[p] == entry_id:
                missed_entries.add(p)
            while p >= 0:
                nid = int(name[p])
                if nid in group_of:
                    br_in[group_of[nid]] += 1
                if nid == report_id:
                    br_in_report += 1
                p = int(parent[p])

        m: dict[str, float] = {}
        br_us = dur[mask(BR)] * 1e6
        m[f"{BR}.calls"] = calls(BR)
        m[f"{BR}.self_s"] = self_s(BR)
        m[f"{BR}.us_per_call.p50"], m[f"{BR}.us_per_call.tail"] = p50_and_tail(br_us)
        m[f"{BR}.clamped_ratio"] = self.clamped / len(br_us) if len(br_us) else 0.0
        m["jammer.JammerAgent.step.self_s"] = self_s("jammer.JammerAgent.step")
        for g in BR_GROUPS:
            m[f"{g}.s"] = total(g)
            m[f"{g}.br_calls"] = float(br_in[g])
        m["game.analysis_report.self_s"] = self_s("game.analysis_report")
        m["game.grid_profiles"] = float(grid_profiles)
        m["game.br_calls_per_grid_profile"] = (
            br_in_report / grid_profiles if grid_profiles else 0.0)
        entries = calls("game.GridEvaluator.entry")
        m["game.GridEvaluator.entry.calls"] = entries
        m["game.GridEvaluator.entry.hit_ratio"] = (
            (entries - len(missed_entries)) / entries if entries else 0.0)
        m["harness.TwoCellEnv.step.calls"] = calls("harness.TwoCellEnv.step")
        m["harness.TwoCellEnv.step.self_s"] = self_s("harness.TwoCellEnv.step")
        m["rates.calls"] = calls("rates")
        m["rates.self_s"] = self_s("rates")
        m["learn.calls"] = calls("learn")
        for agent in ("TabularAgent", "DqnAgent"):
            for method in ("act", "learn"):
                m[f"learn.{agent}.{method}.self_s"] = self_s(f"learn.{agent}.{method}")
        m["learn.dqn_train_step.calls"] = calls("learn.dqn_train_step")
        m["learn.dqn_train_step.self_s"] = self_s("learn.dqn_train_step")
        m["learn.dqn_train_step.us_per_call.p50"] = p50_and_tail(
            dur[mask("learn.dqn_train_step")] * 1e6)[0]
        m["learn.hot_boot.s"] = total("learn.hot_boot")
        m["harness.export_csv.s"] = total("harness.export_csv")
        m["harness.export_csv.bytes"] = float(self.export_bytes)
        seed_s = dur[mask("harness.run_seed")]
        m["harness.run_seed.calls"] = float(len(seed_s))
        m["harness.run_seed.s.p50"], m["harness.run_seed.s.tail"] = p50_and_tail(seed_s)
        m["channel.draw_channels.calls"] = calls("channel.draw_channels")
        m["channel.draw_channels.s"] = total("channel.draw_channels")
        m["trace.spans"] = float(n)
        return m
