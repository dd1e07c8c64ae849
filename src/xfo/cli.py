"""Command-line entry point: validate models, run scenarios, render
traces, explain entities.

Exit status: 0 success (warnings allowed), 1 validation errors,
2 usage errors, 3 runtime simulation errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import loader, render
from .errors import (
    MalformedTraceError,
    NotIndependentContinuantError,
    SimulationError,
    TickOutOfRangeError,
    XfoError,
)
from .microworld import load_scenario
from .ontology import Layer
from .trace import parse_trace, trace_parts


def _print_diags(diags) -> bool:
    """Print diagnostics in source order, sorted by line and column (the
    tokenizer reports bad characters before the parser's errors); True
    when any is an error."""
    for d in sorted(diags, key=lambda d: (d.span.line, d.span.column)):
        print(d.render())
    return any(d.severity == "error" for d in diags)


def _readable(path: str) -> bool:
    return Path(path).is_file()


def _write(path: str, parts, what: str) -> int:
    """Write ``parts`` to file ``path`` and say so: exit status 0, or 2 if it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(parts)
    except OSError:
        print(f"error: cannot write file '{path}'", file=sys.stderr)
        return 2
    print(f"wrote {what}: {path}")
    return 0


def _load_world(path: str, *, tier2_strict: bool = True):
    """(world, exit_code); prints diagnostics. world is None on failure."""
    world, diags = loader.load_model_path(path, tier2_strict=tier2_strict)
    had_errors = _print_diags(diags)
    if world is None or had_errors:
        return None, 1
    return world, 0


def cmd_check(args) -> int:
    if not _readable(args.model):
        print(f"error: cannot read model file '{args.model}'", file=sys.stderr)
        return 2
    world, diags = loader.load_model_path(args.model, tier2_strict=not args.warn_tier2)
    _print_diags(diags)
    errors = sum(1 for d in diags if d.severity == "error")
    warnings = sum(1 for d in diags if d.severity == "warning")
    if errors:
        print(f"{args.model}: {errors} error(s), {warnings} warning(s)")
        return 1
    n = len(world.registry)
    print(f"{args.model}: ok ({n} entities, {len(world.kinds)} relation kinds, "
          f"{warnings} warning(s))")
    return 0


def cmd_run(args) -> int:
    for path in (args.model, args.scenario):
        if not _readable(path):
            print(f"error: cannot read file '{path}'", file=sys.stderr)
            return 2
    world, code = _load_world(args.model, tier2_strict=not args.warn_tier2)
    if world is None:
        return code
    scenario, diags = loader.load_scenario_path(args.scenario, world)
    if _print_diags(diags) or scenario is None:
        return 1
    until = scenario.horizon if args.until is None else args.until
    if not 0 <= until <= scenario.horizon:
        print(f"error: --until {until} is outside the scenario's ticks 0..{scenario.horizon}",
              file=sys.stderr)
        return 2
    try:
        sim = load_scenario(world, scenario)
        sim.run_until(until)
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    except XfoError as exc:
        print(f"{args.scenario}: error: [{exc.code}] {exc}")
        return 1
    for run_id, workflow, status, last in sim.summary():
        line = f"run {run_id} {workflow}: {status}"
        if last is not None:
            line += f" last={last}"
        print(line)
    for ev in world.trace:
        if ev.kind == "WorkflowBroken":
            p = ev.payload
            print(f"warning: run {p['run']} broken at {p['step']}: {p['predicate']}")
    for msg in world.warnings:
        print(f"warning: {msg}")
    if args.trace:
        return _write(args.trace, trace_parts(world.model_name, scenario.name, scenario.horizon, world.trace),
                      "trace")
    return 0


def cmd_timeline(args) -> int:
    if not _readable(args.trace):
        print(f"error: cannot read trace file '{args.trace}'", file=sys.stderr)
        return 2
    try:
        doc = parse_trace(Path(args.trace).read_bytes().decode("utf-8"))
        if args.at is not None:
            svg = render.render_snapshot(doc, args.at)
            what = "snapshot"
        else:
            svg = render.render_timeline(doc, entities=args.entities)
            what = "timeline"
    except TickOutOfRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MalformedTraceError, UnicodeDecodeError) as exc:  # a trace is UTF-8 JSON
        print(f"{args.trace}: error: [{MalformedTraceError.code}] {exc}")
        return 1
    return _write(args.output, [svg], what)


def cmd_explain(args) -> int:
    if not _readable(args.model):
        print(f"error: cannot read model file '{args.model}'", file=sys.stderr)
        return 2
    world, code = _load_world(args.model)
    if world is None:
        return code
    name = args.entity
    ent = world.registry.get(name)
    if ent is None:
        print(f"error: unknown entity '{name}'")
        return 1
    kind = {Layer.B: "B-layer type", Layer.U: "universal", Layer.P: "particular"}[ent.layer]
    print(f"{name}: {kind} (layer {ent.layer.value})")
    print(f"  chain: {' -> '.join(world.registry.parent_chain(name))}")
    try:  # a particular shows what is declared for its universal
        tic = world.tic_of(ent.parent if ent.layer is Layer.P else name)
    except NotIndependentContinuantError:
        return 0
    if tic.entries:
        print("  relationships:")
        for e in tic.entries:
            via = f" (via {e.via})" if e.via is not None and e.via != name else ""
            print(f"    {e.direction} {e.kind} {e.counterpart}{via}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xfo", description="Semantic-model kernel CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model file")
    p.add_argument("model")
    p.add_argument("--warn-tier2", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="run a scenario and emit its trace")
    p.add_argument("model")
    p.add_argument("scenario")
    p.add_argument("--until", type=int, default=None, metavar="T")
    p.add_argument("--trace", default=None, metavar="OUT")
    p.add_argument("--warn-tier2", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("timeline", help="render a trace as SVG")
    p.add_argument("trace")
    p.add_argument("-o", "--output", required=True)
    view = p.add_mutually_exclusive_group()
    view.add_argument("--at", type=int, default=None, metavar="T",
                      help="render the snapshot panel at tick T instead")
    view.add_argument("--entities", nargs="+", default=None, metavar="NAME")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("explain", help="describe an entity")
    p.add_argument("model")
    p.add_argument("entity")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
