#!/usr/bin/env python3
"""Scaling sweep for the xfo benchmark: pass time and per-call time as
curves over input size. Not part of the gated runs.

    python3 bench/sweep.py [--seed N] [--repeats R]

Run from the repository root. Each point sets one workload's sizes, runs
its pass R times (checking every pass against its oracle), and records the
median pass_s and the median time per call name, both in reference
seconds as in the gated runs (see README.md). The curves:

* traffic_events: lights x horizon held at 8000 (about 24k events);
* traffic_lights: horizon 400, lights doubling (events grow with lights);
* school_rules: rule count K doubling at 50 vacancies over 5000 ticks;
* catalog: every catalog size scaled together.

`exp` is the local scaling exponent of pass_s against the curve's size
variable, log(t2/t1) / log(s2/s1): 1 is linear, 2 quadratic. Results go
to stdout and to out/sweep-seed<N>.json in this directory.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

import run
from spans import ROOT, Recorder

CURVES = {
    "traffic_events": (run.TrafficFleet, "lights",
                       [{"lights": n, "horizon": 8000 // n} for n in (10, 20, 40, 80)]),
    "traffic_lights": (run.TrafficFleet, "lights",
                       [{"lights": n, "horizon": 400} for n in (5, 10, 20, 40)]),
    "school_rules": (run.SchoolRules, "rules",
                     [{"rules": k, "pairs": 50, "horizon": 5000} for k in (5, 10, 20, 40)]),
    "catalog": (run.CatalogCheck, "universals", [
        {k: int(v * f) for k, v in run.CatalogCheck.sizes.items()} for f in (0.25, 0.5, 1, 2)
    ]),
}


def point(x, cls, sizes: dict, seed: int, repeats: int) -> dict:
    wl = cls()
    wl.sizes = sizes
    wl.setup(x, seed, Recorder())
    rec, host = Recorder(), run.HostSpeed()
    passes, calls = [], {}
    for i in range(repeats):
        rec.begin(i)
        prepared = wl.prepare(x, i)
        host.tick()
        result = rec.call(ROOT, wl.run, x, rec, prepared)
        passes.append(host.scale(rec.total(ROOT)))
        counters = wl.check(result, prepared)
        per_host_ns = passes[-1] / rec.total(ROOT)
        for name, ns in rec.calls.items():
            if name != ROOT:
                calls.setdefault(name, []).append(sum(ns) * per_host_ns)
    return {
        "sizes": sizes,
        "pass_s": statistics.median(passes),
        "calls_s": {k: statistics.median(v) for k, v in sorted(calls.items())},
        "events": counters.get("trace.events"),
        "links": counters.get("relations.links"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)
    if not (run.SRC / "xfo" / "__init__.py").is_file():
        print(f"error: no xfo package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    x = run.import_xfo()
    out = {}
    for name, (cls, var, sizes_list) in CURVES.items():
        print(f"{name} (size variable: {var})")
        rows = []
        for sizes in sizes_list:
            row = point(x, cls, sizes, args.seed, args.repeats)
            prev = rows[-1] if rows else None
            exp = ""
            if prev:
                exp = "exp %.2f" % (math.log(row["pass_s"] / prev["pass_s"])
                                    / math.log(sizes[var] / prev["sizes"][var]))
            top = sorted(row["calls_s"].items(), key=lambda kv: -kv[1])[:3]
            print(f"  {sizes} pass_s {row['pass_s']:.4f} {exp} events={row['events']} "
                  f"links={row['links']} | " + ", ".join(f"{k} {v:.4f}" for k, v in top))
            rows.append(row)
        out[name] = rows
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"sweep-seed{args.seed}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
