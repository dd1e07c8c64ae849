"""Shared test utilities: shipped-model loading and CLI invocation."""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

import xfo
from xfo import loader
from xfo.microworld import load_scenario

MODELS_DIR = Path(xfo.__file__).parent / "models"
GOLDEN_DIR = Path(__file__).parent / "golden"


def model_text(name: str) -> str:
    return (MODELS_DIR / name).read_text(encoding="utf-8")


def load_world(model: str, *, tier2_strict: bool = True):
    world, diags = loader.load_model_path(MODELS_DIR / model, tier2_strict=tier2_strict)
    assert world is not None, [d.render() for d in diags]
    assert not [d for d in diags if d.severity == "error"]
    return world


def load_shipped_scenario(world, scenario: str):
    scen, diags = loader.load_scenario_path(MODELS_DIR / scenario, world)
    assert scen is not None, [d.render() for d in diags]
    return scen


def run_scenario(model: str, scenario: str, until: int | None = None):
    """Load and execute a shipped scenario; returns (world, sim, scenario)."""
    world = load_world(model)
    scen = load_shipped_scenario(world, scenario)
    sim = load_scenario(world, scen)
    sim.run_until(scen.horizon if until is None else until)
    return world, sim, scen


def copy_models(dest: Path) -> None:
    for f in MODELS_DIR.iterdir():
        shutil.copy(f, dest)


def hq_quality(world, entity: str, at: int) -> str | None:
    """The entity's single active Has_Quality counterpart, or None."""
    names = [s.counterpart for s in world.state_of(entity, at).links
             if s.kind == "Has_Quality" and s.direction == "out"]
    assert len(names) <= 1, names
    return names[0] if names else None


def link_events(trace) -> list[tuple[int, str, str, str, str]]:
    """(at, kind, from, relation, to) for Link/Unlink events, trace order."""
    return [
        (e.at, e.kind, e.payload["from"], e.payload["relation"], e.payload["to"])
        for e in trace
        if e.kind in ("Link", "Unlink")
    ]


def generated_inputs() -> dict[str, str]:
    """Small inputs from the benchmark's generators."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    import gen

    traffic = gen.traffic(7, lights=3, horizon=50)
    school = gen.school(7, rules=3, pairs=5, horizon=200)
    return {
        "catalog.xfo": gen.catalog(7, universals=200, particulars=400, declarations=100,
                                   transitionals=40, workflows=10).model,
        "traffic.xfo": traffic.model, "traffic.xws": traffic.scenario,
        "school.xfo": school.model, "school.xws": school.scenario,
    }
