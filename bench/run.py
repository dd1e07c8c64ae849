#!/usr/bin/env python3
"""Benchmark for the xfo engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; `xfo` is imported from `src/`. One process
runs one workload, single-threaded. It sets up SETUP_REPS times (import
xfo, generate the inputs from the seed, and for history_query build the
history), then repeats the workload's pass for S seconds. Every pass is
checked against an oracle that does not use xfo (`oracle.py`) and its
deterministic counters must equal those of the first pass.

`--trace 0` times passes with only a stopwatch around each call and
prints the end-to-end metrics. `--trace 1` alternates untraced and traced
passes, records a span around every call into xfo, probes per-call
latencies on the workload's own world with seeded samples, and prints
the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit status is 0 when
every check passed, 1 when any failed, 2 when xfo cannot be imported.

See README.md in this directory for every metric and workload.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import re
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import gen
import oracle
from spans import ROOT, Recorder, layer_self_ns

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPS = 5
SETUP_BUDGET_S = 5.0  # after 3 set-ups, stop once this much time went into them
PROBE_SAMPLES = 200
QUERIES_PER_PASS = 200
LAYERS = ("dsl", "loader", "ontology", "relations", "dynamics", "microworld", "trace", "render")


class CheckFailed(Exception):
    """A pass's output disagrees with its oracle."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def import_xfo() -> SimpleNamespace:
    """Import every xfo module afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "xfo" or m.startswith("xfo.")]:
        del sys.modules[name]
    mods = LAYERS + ("errors",)
    return SimpleNamespace(**{m: importlib.import_module(f"xfo.{m}") for m in mods})


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p90/p75/p50 with at least ten samples above it."""
    s = sorted(values)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(s) * (100 - p) / 100 >= 10:
            return f"p{p:g}", s[min(len(s) - 1, int(len(s) * p / 100))]
    return None


# ----------------------------------------------------------------------
# host speed

# Seconds the reference work takes on the host this benchmark was tuned
# on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11). Never change it: the
# gated times are scaled to it, so a new value would move every baseline.
REF_S = 0.018


class _Ref:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def reference() -> int:
    """Fixed pure-Python work shaped like the engine's: object allocation,
    reversed list scans with attribute tests, and string-keyed dict
    inserts. It never calls xfo, so only host speed moves its time."""
    items = [_Ref(i, i % 7) for i in range(20000)]
    hits = 0
    for _ in range(6):
        for o in reversed(items):
            if o.b == 3 and o.a > 0:
                hits += 1
    table = {}
    for i in range(20000):
        table[str(i)] = i
    return hits + len(table)


class HostSpeed:
    """Times `reference()` between measured intervals. On a shared host
    the same work runs up to 1.5x slower for seconds to minutes at a time,
    and the reference slows with it; dividing by the reference time taken
    just before and just after an interval cancels that drift."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.tick()

    def tick(self) -> int:
        """Time the reference now (the cyclic GC stays off, so the size of
        the program's heap cannot leak into it)."""
        gc.disable()
        try:
            t0 = perf_counter_ns()
            reference()
            ns = perf_counter_ns() - t0
        finally:
            gc.enable()
        self.samples.append(ns)
        return ns

    def scale(self, host_ns: int) -> float:
        """Reference seconds for `host_ns` measured since the previous tick."""
        before = self.samples[-1]
        return host_ns / ((before + self.tick()) / 2) * REF_S


# ----------------------------------------------------------------------
# workloads


def run_pipeline(x, rec: Recorder, inp: gen.Inputs) -> SimpleNamespace:
    """parse -> load -> load_scenario -> run_until -> trace JSON ->
    parse_trace -> render_timeline, as `xfo run` plus `xfo timeline` do."""
    res = rec.call("dsl.parse_model", x.dsl.parse_model, inp.model, "gen.xfo")
    world, diags = rec.call("loader.build_world", x.loader.build_world, res.document)
    sres = rec.call("dsl.parse_scenario", x.dsl.parse_scenario, inp.scenario, "gen.xws")
    scenario, sdiags = rec.call(
        "loader.build_scenario", x.loader.build_scenario, sres.document, world
    )
    diags = list(res.diagnostics) + diags + list(sres.diagnostics) + sdiags
    require(scenario is not None, "scenario did not load: " + "; ".join(d.render() for d in diags))
    sim = rec.call("microworld.load_scenario", x.microworld.load_scenario, world, scenario)
    rec.call("microworld.run_until", sim.run_until, scenario.horizon)
    text = rec.call(
        "trace.to_json", x.trace.trace_to_json,
        world.model_name, scenario.name, scenario.horizon, world.trace,
    )
    doc = rec.call("trace.parse", x.trace.parse_trace, text)
    svg = rec.call("render.timeline", x.render.render_timeline, doc)
    return SimpleNamespace(
        world=world, sim=sim, diags=diags, text=text, doc=doc, svg=svg,
        statements=len(res.document.statements) + len(sres.document.statements),
    )


def run_counters(r: SimpleNamespace) -> dict:
    kinds = Counter(e.kind for e in r.world.trace)
    statuses = Counter(status for _, _, status, _ in r.sim.summary())
    return {
        "trace.sha256": sha(r.text),
        "trace.events": len(r.world.trace),
        "trace.bytes": len(r.text.encode("utf-8")),
        "relations.links": len(r.world.links),
        "microworld.rule_fires": kinds["RuleFired"],
        "microworld.runs_completed": statuses["Completed"],
        "microworld.runs_broken": statuses["Broken"],
        "microworld.runs_interrupted": statuses["Interrupted"],
        "microworld.runs_running": statuses["Running"],
        "loader.warnings": sum(d.severity == "warning" for d in r.diags),
        "loader.errors": sum(d.severity == "error" for d in r.diags),
        "dsl.statements": r.statements,
        "ontology.entities": len(r.world.registry),
        "render.svg_bytes": len(r.svg.encode("utf-8")),
        "render.svg_sha256": sha(r.svg),
    }


def check_run_trace(r: SimpleNamespace) -> None:
    require(len(r.doc.events) == len(r.world.trace), "parsed trace lost events")
    require(not r.diags, f"{len(r.diags)} diagnostic(s) on generated input")


class Workload:
    name = ""
    sizes: dict = {}

    def setup(self, x, seed: int, rec: Recorder) -> str:
        """Generate inputs (and any state the pass reads); return a
        fingerprint that must not change between set-ups of one seed."""
        raise NotImplementedError

    def prepare(self, x, i: int):
        """Untimed per-pass input."""
        return None

    def run(self, x, rec: Recorder, prepared):
        raise NotImplementedError

    def check(self, result, prepared) -> dict:
        """Raise CheckFailed on an oracle mismatch; return the counters."""
        raise NotImplementedError

    def e2e(self, rec: Recorder, result) -> dict:
        """Workload-specific end-to-end figures for one untraced pass: a
        value, or a list of samples, per metric name."""
        return {}

    def probe_world(self, x, result):
        """(world, ticks, particulars, predicates) the per-call probes
        sample from."""
        raise NotImplementedError

    def probe_stages(self, x, rec: Recorder, result, rng) -> None:
        """Calls outside the pass that give a stage metric a value."""


class RunWorkload(Workload):
    """A workload whose pass is `run_pipeline` on generated inputs."""

    def run(self, x, rec, prepared):
        return run_pipeline(x, rec, self.inp)

    def e2e(self, rec, r):
        sim_ns = rec.total("microworld.load_scenario") + rec.total("microworld.run_until")
        load_ns = sum(rec.total(n) for n in (
            "dsl.parse_model", "loader.build_world", "dsl.parse_scenario", "loader.build_scenario"))
        return {
            "sim_events_per_s": len(r.world.trace) / sim_ns * 1e9,
            "horizon_ticks_per_s": self.inp.spec["horizon"] / rec.total("microworld.run_until") * 1e9,
            "model_lines_per_s": self.inp.lines / load_ns * 1e9,
        }

    def probe_stages(self, x, rec, r, rng):
        rec.call("trace.replay_spans", x.trace.replay_spans, r.doc.events)
        rec.call("render.snapshot", x.render.render_snapshot, r.doc, rng.randrange(r.doc.horizon + 1))
        for wf in r.world.workflows.values():
            rec.call("dynamics.check_completeness", x.dynamics.check_completeness, wf, ())


class TrafficFleet(RunWorkload):
    name = "traffic_fleet"
    sizes = {"lights": 12, "horizon": 200}

    def setup(self, x, seed, rec):
        self.inp = gen.traffic(seed, **self.sizes)
        self.expected = oracle.traffic_events(self.inp.spec)
        return sha(self.inp.model + self.inp.scenario)

    def check(self, r, prepared):
        check_run_trace(r)
        got = [
            (e.at, e.kind, e.payload["from"], e.payload["relation"], e.payload["to"])
            for e in r.world.trace if e.kind in ("Link", "Unlink")
        ]
        if got != self.expected:
            at = next((i for i, (a, b) in enumerate(zip(got, self.expected)) if a != b),
                      min(len(got), len(self.expected)))
            raise CheckFailed(f"Link/Unlink event {at} differs from the event-heap oracle")
        counters = run_counters(r)
        require(counters["microworld.runs_running"] == len(self.inp.spec["lights"]),
                "a light's cycle stopped before the horizon")
        return counters

    def probe_world(self, x, r):
        spec = self.inp.spec
        lamps = [lamp for lt in spec["lights"] for lamp in lt.lamps]
        sp = x.dynamics.StatePredicate
        preds = [sp(True, lamp, gen.HQ, c) for lamp in lamps for c in ("green", "dark")]
        preds.append(sp(True, x.dynamics.Wildcard("Lamp"), gen.HQ, "red"))
        return r.world, range(spec["horizon"] + 1), lamps, preds


class SchoolRules(RunWorkload):
    name = "school_rules"
    sizes = {"rules": 10, "pairs": 20, "horizon": 2000}

    def setup(self, x, seed, rec):
        self.inp = gen.school(seed, **self.sizes)
        self.expected = oracle.school_fires(self.inp.spec)
        return sha(self.inp.model + self.inp.scenario)

    def check(self, r, prepared):
        check_run_trace(r)
        fires = [(e.at, e.payload["rule"]) for e in r.world.trace if e.kind == "RuleFired"]
        require(fires == self.expected,
                f"RuleFired {fires[:3]}... differs from the schedule {self.expected[:3]}...")
        done = sorted(e.at for e in r.world.trace if e.kind == "WorkflowComplete")
        require(done == sorted(t + oracle.HIRE_TICKS for t, _ in self.expected),
                "hiring runs did not complete 4 ticks after their vacancy")
        counters = run_counters(r)
        require(counters["microworld.runs_completed"] == len(r.sim.runs) == len(self.expected),
                "not every hiring run completed")
        return counters

    def probe_world(self, x, r):
        world = r.world
        persons = [e.name for e in world.registry.entities() if e.parent == "Person"]
        preds = [p for rule in world.rules.values() for p in rule.guard]
        sp = x.dynamics.StatePredicate
        preds += [sp(True, p, "Has_Role", f"role{p[7:10]}") for p in persons if p.startswith("teacher")]
        return world, range(self.inp.spec["horizon"] + 1), persons, preds


class CatalogCheck(Workload):
    """`xfo check --warn-tier2` on one large model, then `xfo explain` on
    every universal."""

    name = "catalog_check"
    sizes = {"universals": 1000, "particulars": 2000, "declarations": 500,
             "transitionals": 200, "workflows": 50}

    def setup(self, x, seed, rec):
        self.inp = gen.catalog(seed, **self.sizes)
        self.expected = oracle.catalog_expect(self.inp.spec)
        return sha(self.inp.model)

    def run(self, x, rec, prepared):
        res = rec.call("dsl.parse_model", x.dsl.parse_model, self.inp.model, "catalog.xfo")
        world, diags = rec.call(
            "loader.build_world", x.loader.build_world, res.document, tier2_strict=False
        )
        gaps = sum(
            len(rec.call("dynamics.check_completeness", x.dynamics.check_completeness, wf, ()).gaps)
            for wf in world.workflows.values()
        )
        explained = entries = 0
        for u in self.inp.spec["universals"]:
            rec.call("ontology.parent_chain", world.registry.parent_chain, u)
            try:
                tic = rec.call("relations.tic_of", world.tic_of, u)
            except x.errors.NotIndependentContinuantError:
                continue
            explained += 1
            entries += len(tic.entries)
        return SimpleNamespace(
            world=world, diags=list(res.diagnostics) + diags, gaps=gaps,
            explained=explained, entries=entries, statements=len(res.document.statements),
        )

    def check(self, r, prepared):
        got = {
            "warnings": sum(d.severity == "warning" for d in r.diags),
            "errors": sum(d.severity == "error" for d in r.diags),
            "gaps": r.gaps,
            "statements": r.statements,
            "entities": len(r.world.registry),
            "explained": r.explained,
            "tic_entries": r.entries,
        }
        wrong = {k: (got[k], self.expected[k]) for k in got if got[k] != self.expected[k]}
        require(not wrong, f"catalog (got, planted): {wrong}")
        return {
            "loader.warnings": got["warnings"],
            "loader.errors": got["errors"],
            "dynamics.gaps": r.gaps,
            "dsl.statements": r.statements,
            "ontology.entities": got["entities"],
            "relations.links": len(r.world.links),
            "relations.declarations": len(r.world.declarations),
            "relations.tic_entries": r.entries,
        }

    def e2e(self, rec, r):
        verdict_ns = sum(rec.total(n) for n in (
            "dsl.parse_model", "loader.build_world", "dynamics.check_completeness"))
        return {"model_lines_per_s": self.inp.lines / verdict_ns * 1e9}

    def probe_world(self, x, r):
        spec = self.inp.spec
        sp = x.dynamics.StatePredicate
        preds = [sp(True, *t) for t in spec["requires"][:PROBE_SAMPLES]]
        preds += [sp(True, x.dynamics.Wildcard(u), gen.HQ, q)
                  for u, q in zip(spec["independent"], spec["qualities"])]
        return r.world, [0], spec["objects"], preds


class HistoryQuery(Workload):
    """Reads on a finished traffic_fleet-shaped run: state_of, holds
    (concrete and wildcard) and tic_of at seeded past ticks, one
    replay_spans and one render_snapshot per pass."""

    name = "history_query"
    sizes = {"lights": 12, "horizon": 200}

    def setup(self, x, seed, rec):
        self.seed = seed
        self.inp = gen.traffic(seed, **self.sizes)
        self.h = run_pipeline(x, rec, self.inp)
        spec = self.inp.spec
        self.lamp_light = {lamp: lt for lt in spec["lights"] for lamp in lt.lamps}
        self.part_of = {lamp: lt.name for lt in spec["lights"] for lamp in lt.lamps}
        self.spans = oracle.json_spans(self.h.text)
        replayed = {k: [list(s) for s in v] for k, v in x.trace.replay_spans(self.h.doc.events).items()}
        require(replayed == self.spans, "replay_spans disagrees with the trace JSON")
        self.counters = run_counters(self.h)
        return self.counters["trace.sha256"]

    def prepare(self, x, i):
        rng = random.Random(f"history:{self.seed}:{i}")
        lamps = list(self.lamp_light)
        sp, wild = x.dynamics.StatePredicate, x.dynamics.Wildcard
        qs = []
        kinds = [0, 1, 2, 3] * (QUERIES_PER_PASS // 4)  # same mix in every pass
        rng.shuffle(kinds)
        for kind in kinds:
            lamp, at = rng.choice(lamps), rng.randrange(self.inp.spec["horizon"] + 1)
            if kind == 0:
                qs.append(("state_of", lamp, at, None))
            elif kind == 1:
                qs.append(("tic_of", lamp, at, None))
            elif kind == 2:
                colour = rng.choice(("green", "yellow", "red", "dark"))
                qs.append(("holds", lamp, at, sp(True, lamp, gen.HQ, colour)))
            else:
                colour = rng.choice(("green", "yellow", "red"))
                qs.append(("holds", None, at, sp(True, wild("Lamp"), gen.HQ, colour)))
        return qs, rng.randrange(self.inp.spec["horizon"] + 1)

    def run(self, x, rec, prepared):
        qs, snap_at = prepared
        world = self.h.world
        spans = rec.call("trace.replay_spans", x.trace.replay_spans, self.h.doc.events)
        answers = []
        for what, lamp, at, pred in qs:
            if what == "state_of":
                answers.append(rec.call("relations.state_of", world.state_of, lamp, at))
            elif what == "tic_of":
                answers.append(rec.call("relations.tic_of", world.tic_of, lamp, at))
            else:
                answers.append(rec.call("dynamics.holds", pred.holds, world, at))
        svg = rec.call("render.snapshot", x.render.render_snapshot, self.h.doc, snap_at)
        return SimpleNamespace(spans=spans, answers=answers, svg=svg, world=world, doc=self.h.doc)

    def colours(self, at: int) -> dict[str, str]:
        out = {}
        for lt in self.inp.spec["lights"]:
            out.update(oracle.lamp_colours(lt, at))
        return out

    def check(self, r, prepared):
        qs, snap_at = prepared
        require(len(r.world.links) == self.counters["relations.links"]
                and len(r.world.trace) == self.counters["trace.events"], "a query changed the world")
        for (what, lamp, at, pred), ans in zip(qs, r.answers):
            if what == "holds":
                want = pred.to_ref in ([self.colours(at)[pred.from_ref]] if lamp
                                       else self.colours(at).values())
                replayed = any(
                    oracle.active(self.spans, (f, gen.HQ, pred.to_ref), at)
                    for f in ([lamp] if lamp else self.lamp_light)
                )
                require(ans == want == replayed, f"holds {pred.render()} at {at}: {ans}, oracle {want}")
                continue
            colour = oracle.lamp_colours(self.lamp_light[lamp], at)[lamp]
            want = {("out", gen.HQ, colour), ("out", gen.PART, self.part_of[lamp])}
            replayed = {("out", k, t) for (f, k, t) in self.spans
                        if f == lamp and oracle.active(self.spans, (f, k, t), at)}
            rows = ans.links if what == "state_of" else ans.entries
            got = {(s.direction, s.kind, s.counterpart) for s in rows}
            require(len(rows) == 2 and got == want == replayed,
                    f"{what}({lamp}, {at}) = {sorted(got)}, oracle {sorted(want)}")
        shown = dict(re.findall(r"<title>(\w+): (\w+)</title></circle>", r.svg))
        want = self.colours(snap_at)
        if snap_at == self.inp.spec["horizon"]:
            # render clips every span to [start, horizon), so the panel at
            # the horizon tick shows no colour although state_of has one.
            # Found by this benchmark and kept as found; see README.md.
            want = dict.fromkeys(want, "none")
        require(shown == want, f"snapshot at {snap_at} shows the wrong colours")
        replayed = {k: [list(s) for s in v] for k, v in r.spans.items()}
        require(replayed == self.spans, "replay_spans disagrees with the trace JSON")
        return self.counters

    def e2e(self, rec, r):
        return {"query_us": [ns / 1e3 for n in ("relations.state_of", "relations.tic_of", "dynamics.holds")
                            for ns in rec.calls.get(n, ())]}

    def probe_world(self, x, r):
        return TrafficFleet.probe_world(self, x, self.h)

    probe_stages = RunWorkload.probe_stages


WORKLOADS = {w.name: w for w in (TrafficFleet, SchoolRules, CatalogCheck, HistoryQuery)}


# ----------------------------------------------------------------------
# per-call probes (traced run only)


def probe(x, rec: Recorder, wl: Workload, result, seed: int) -> dict:
    """Time single calls on the workload's own world, with seeded samples."""
    rng = random.Random(f"probe:{wl.name}:{seed}")
    world, ticks, particulars, preds = wl.probe_world(x, result)
    ticks = list(ticks)
    reg = world.registry
    names = [e.name for e in reg.entities()]
    parts = [e.name for e in reg.entities() if e.layer.value == "P" and e.parent != "Transitional"]
    kinds = list(world.kinds)
    known = [l.triple() for l in world.links] or list(wl.inp.spec.get("templates", ()))
    rec.begin("probe")
    for _ in range(PROBE_SAMPLES):
        e, at = rng.choice(particulars), rng.choice(ticks)
        rec.call("relations.state_of", world.state_of, e, at)
        rec.call("relations.tic_of", world.tic_of, e, at)
        rec.call("dynamics.holds", rng.choice(preds).holds, world, rng.choice(ticks))
        rec.call("relations.active_link", world.active_link, *rng.choice(known))
        a = rng.choice(names)
        anc = rng.choice(reg.parent_chain(a)) if rng.random() < 0.5 else rng.choice(names)
        rec.call("ontology.is_descendant", reg.is_descendant, a, anc)
    valid = 0
    for i in range(PROBE_SAMPLES):
        t = rng.choice(known) if i % 2 else (rng.choice(parts), rng.choice(kinds), rng.choice(parts))
        valid += bool(rec.call("relations.validate_link", world.validate_link, *t))
    return {"relations.validate_accept_ratio": valid / PROBE_SAMPLES}


# ----------------------------------------------------------------------
# reporting

# per-layer metric -> the call whose time per pass it is
STAGES = {
    "dsl.parse_model_s": "dsl.parse_model",
    "dsl.parse_scenario_s": "dsl.parse_scenario",
    "loader.build_world_s": "loader.build_world",
    "loader.build_scenario_s": "loader.build_scenario",
    "microworld.load_scenario_s": "microworld.load_scenario",
    "microworld.run_until_s": "microworld.run_until",
    "trace.to_json_s": "trace.to_json",
    "trace.parse_s": "trace.parse",
    "trace.replay_spans_s": "trace.replay_spans",
    "render.timeline_s": "render.timeline",
    "render.snapshot_s": "render.snapshot",
    "dynamics.check_completeness_s": "dynamics.check_completeness",
    "relations.tic_of_s": "relations.tic_of",
}
# per-layer metric -> the call whose probe latency it is
LATENCIES = {
    "relations.active_link_us": "relations.active_link",
    "relations.state_of_us": "relations.state_of",
    "relations.tic_of_us": "relations.tic_of",
    "relations.validate_link_us": "relations.validate_link",
    "ontology.is_descendant_us": "ontology.is_descendant",
    "dynamics.holds_us": "dynamics.holds",
}
COUNTS = (
    "relations.links", "microworld.rule_fires", "microworld.runs_completed",
    "microworld.runs_broken", "microworld.runs_interrupted", "trace.events", "trace.bytes",
    "render.svg_bytes", "dsl.statements", "loader.warnings", "loader.errors",
    "ontology.entities", "dynamics.gaps",
)


def unit_of(metric: str) -> str:
    if metric == "microworld.us_per_event":
        return "us"
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_ratio", "ratio"), ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    return "count"


def per_layer(traced: list[dict], setup: dict, stages: dict, probes: Recorder, extra: dict,
              counters: dict, untraced_s: list, traced_s: list) -> dict:
    """Per-layer values. A stage's time comes from the traced passes when
    the pass makes that call, else from the stage probes, else from the
    traced set-up (history_query builds its history there); else it is 0."""
    out = {}
    for metric, call in STAGES.items():
        per_pass = [calls[call] for calls in traced if call in calls]
        source = stages if call in stages else setup
        out[metric] = median(per_pass) / 1e9 if per_pass else sum(source.get(call, ())) / 1e9
    events = counters.get("trace.events", 0)
    out["microworld.us_per_event"] = out["microworld.run_until_s"] * 1e6 / events if events else 0.0
    for metric, call in LATENCIES.items():
        out[metric] = median(probes.calls.get(call, ())) / 1e3
    for metric in COUNTS:
        out[metric] = counters.get(metric, 0)
    out.update(extra)
    out["tracing.untraced_pass_s"] = median(untraced_s)
    out["tracing.traced_pass_s"] = median(traced_s)
    out["tracing.overhead_s"] = out["tracing.traced_pass_s"] - out["tracing.untraced_pass_s"]
    return out


def print_self_times(rec: Recorder, traced_s: list, untraced_s: list) -> None:
    by_pass = layer_self_ns([s for s in rec.spans if s[5] != "setup"])
    layers = LAYERS + ("bench",)
    print("traced run: per-layer self time per pass (median over traced passes)")
    total = median(traced_s)
    accounted = 0.0
    for layer in layers:
        v = median([p.get(layer, 0) for p in by_pass.values()]) / 1e9
        accounted += v
        share = v / total * 100 if total else 0.0
        print(f"  {layer:<11} {v:10.6f} s  {share:5.1f}% of pass_s")
    print(f"  {'sum':<11} {accounted:10.6f} s  vs traced pass_s {total:.6f} s")
    print(f"  tracing overhead {total - median(untraced_s):+.6f} s "
          f"(traced {total:.6f} s - untraced {median(untraced_s):.6f} s)")


def print_e2e(name: str, values, unit: str) -> None:
    t = tail(values)
    extra = f", {t[0]} {t[1]:.6g}" if t else ", no tail percentile (fewer than 20 samples)"
    print(f"{name:<20} median {median(values):.6g} {unit}{extra}, n={len(values)}")


# ----------------------------------------------------------------------
# main


def check_across_runs(wl: Workload, seed: int, counters: dict) -> str | None:
    """Compare with the counters an earlier run of this seed and size left
    behind; the first run writes them."""
    size = "-".join(f"{k}{v}" for k, v in wl.sizes.items())
    path = OUT / "counters" / f"{wl.name}-{size}-seed{seed}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before != counters:
            return f"counters differ from an earlier run of this seed ({path.name})"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True) + "\n", encoding="utf-8")
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "xfo" / "__init__.py").is_file():
        print(f"error: no xfo package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    traced = bool(args.trace)

    host = HostSpeed()
    setup_raw, setup_s, prints, failures = [], [], set(), []
    setup_rec = Recorder(traced)
    while len(setup_s) < SETUP_REPS and not (len(setup_s) >= 3 and sum(setup_raw) > SETUP_BUDGET_S):
        wl = None  # free the previous set-up's state first
        gc.collect()
        wl = WORKLOADS[args.workload]()
        setup_rec.begin("setup")
        t0 = perf_counter_ns()
        x = import_xfo()
        prints.add(wl.setup(x, args.seed, setup_rec))
        ns = perf_counter_ns() - t0
        setup_raw.append(ns / 1e9)
        setup_s.append(host.scale(ns))
    if len(prints) != 1:
        failures.append("set-up is not deterministic: inputs differ between set-ups")

    plain, tracer = Recorder(False), Recorder(True)
    pass_s = {False: [], True: []}  # host seconds, untraced and traced passes
    pass_ref = []  # untraced passes in reference seconds
    traced_calls: list[dict] = []
    derived: dict[str, list] = {}
    first_counters = None
    attempted = failed = 0
    last = result = None  # untraced runs keep no finished pass alive during the next
    deadline = perf_counter_ns() + int(args.seconds * 1e9)
    while attempted == 0 or perf_counter_ns() < deadline:
        use_trace = traced and attempted % 2 == 1
        rec = tracer if use_trace else plain
        prepared = wl.prepare(x, attempted)
        result = None
        gc.collect()
        host.tick()
        rec.begin(attempted)
        attempted += 1
        try:
            result = rec.call(ROOT, wl.run, x, rec, prepared)
            scaled = host.scale(rec.total(ROOT))
            counters = wl.check(result, prepared)
            if first_counters is None:
                first_counters = counters
            require(counters == first_counters, "deterministic counters drifted between passes")
        except Exception as exc:  # one failed pass must not end the run
            failed += 1
            failures.append(f"pass {attempted - 1}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            continue
        if traced:
            last = result
        pass_s[use_trace].append(rec.total(ROOT) / 1e9)
        if use_trace:
            traced_calls.append({k: sum(v) for k, v in rec.calls.items()})
        else:
            pass_ref.append(scaled)
            for k, v in wl.e2e(rec, result).items():
                derived.setdefault(k, []).extend(v if isinstance(v, list) else [v])

    if first_counters is not None and failed < attempted:
        drift = check_across_runs(wl, args.seed, first_counters)
        if drift:
            failures.append(drift)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {wl.name} seed {args.seed} sizes {wl.sizes} "
          f"({wl.inp.lines} source lines)")
    print(f"reference work: median {median(host.samples) / 1e6:.3g} ms over {len(host.samples)} "
          f"timings ({REF_S * 1e3:g} ms on the tuning host); gated times are scaled by it")
    print(f"{'setup_s':<20} median {median(setup_s):.6g} s over {len(setup_s)} set-ups "
          f"(host {median(setup_raw):.6g} s)")
    print_e2e("pass_s", pass_ref, "s")
    print_e2e("pass_s (host)", pass_s[False], "s")
    for k, values in derived.items():
        print_e2e(k, values, "us" if k.endswith("_us") else "1/s")
    print(f"{'peak_rss_mb':<20} {peak_rss_mb:.1f} MB")
    print(f"{'fail_ratio':<20} {failed}/{attempted} = {failed / attempted:.3f}")
    print(f"counters {json.dumps(first_counters, sort_keys=True)}")
    for f in failures:
        print(f"FAIL {f}")

    if traced:
        probes, stages, extra = Recorder(False), Recorder(False), {}
        if last is not None:
            extra = probe(x, probes, wl, last, args.seed)
            wl.probe_stages(x, stages, last, random.Random(f"stages:{args.seed}"))
        print_self_times(tracer, pass_s[True], pass_s[False])
        metrics = per_layer(traced_calls, setup_rec.calls, stages.calls, probes, extra,
                            first_counters or {}, pass_s[False], pass_s[True])
        OUT.mkdir(exist_ok=True)
        tracer.spans.extend(setup_rec.spans)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    else:
        metrics = {"setup_s": median(setup_s), "pass_s": median(pass_ref),
                   "peak_rss_mb": peak_rss_mb}
    for k, v in metrics.items():
        if traced:
            print(f"  {k:<34} {v:.6g} {unit_of(k)}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": max(failed, 0 if correct else 1),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
