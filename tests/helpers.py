"""Shared test utilities: the shipped runs, shipped-model loading, the
commented copy of a source text, generated inputs, and hypothesis
strategies for lamp mechanisms."""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

from hypothesis import strategies as st

import xfo
from xfo import loader
from xfo.dsl import parse_model
from xfo.dynamics import Cond, LinkTemplate, Loop, Seq, StatePredicate, Wildcard, WorkflowStep
from xfo.microworld import load_scenario

MODELS_DIR = Path(xfo.__file__).parent / "models"
GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"

# Every shipped scenario with the model it runs on, and the sha256 of each
# run's trace JSON. The SVG goldens see only Has_Quality spans, so the
# hashes pin everything else: every event, its order and payload.
SHIPPED_RUNS = [
    ("traffic.xfo", "traffic_desk.xws"),
    ("school.xfo", "school_hire.xws"),
    ("celadon.xfo", "celadon_run.xws"),
    ("celadon.xfo", "celadon_broken.xws"),
    ("celadon.xfo", "celadon_interrupt.xws"),
]
SHIPPED_MODELS = list(dict.fromkeys(model for model, _ in SHIPPED_RUNS))
SHIPPED_TRACE_SHA256 = {
    "traffic_desk.xws": "ba59f33ee5da76a147e228cceae53a8539c4e8260864c15a433abdb4ac9a14ab",
    "school_hire.xws": "744803931bdd73c3df9f97534665ca64a5cb3f0b02dcd72800d7240438ebe181",
    "celadon_run.xws": "29bb74b445102f72d4d1c0765465d18f70557f0204a6041a5a3f72a6b12fb25c",
    "celadon_broken.xws": "5fa67ce172b8ed0e7982a35d9504a23140bc44bf32fce6a8d6d38d88d0c485fa",
    "celadon_interrupt.xws": "7b291d51e658bae6c7971ffd01f05713da081bf91b875e222717b7af751b9f12",
}


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


def commented(text: str) -> str:
    """``text`` with `` # c`` at the end of every line: every line then goes
    down the cursor path, and no token moves."""
    out = []
    for piece in text.splitlines(keepends=True):
        body = piece.splitlines()[0] if piece.splitlines() else ""
        out.append(body + " # c" + piece[len(body):])
    return "".join(out)


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


# ----------------------------------------------------------------------
# lamp mechanisms: one lamp, a few colours, bodies of steps, ifs and loops

LAMP_MODEL = """model lamps
universal Lamp is_a B_Object
universal Color is_a B_Quality
particular lamp instance_of Lamp
particular green instance_of Color
particular dark instance_of Color
relate Lamp Has_Quality Color
"""
COLORS = ("green", "dark")


def lamp_world():
    world, diags = loader.build_world(parse_model(LAMP_MODEL, "lamps.xfo").document)
    assert not diags, [d.render() for d in diags]
    return world


def lamp_facts():
    """An initial fact set: ``lamp Has_Quality c`` for some colours c."""
    return st.lists(st.sampled_from(COLORS), unique=True).map(
        lambda cs: tuple(LinkTemplate("lamp", "Has_Quality", c) for c in cs))


def lamp_predicates(wildcards: bool):
    lamps = st.sampled_from(("lamp", Wildcard("Lamp")) if wildcards else ("lamp",))
    colors = st.sampled_from(COLORS + ((Wildcard("Color"),) if wildcards else ()))
    return st.builds(StatePredicate, st.booleans(), lamps, st.just("Has_Quality"), colors)


def lamp_steps(wildcards: bool):
    """A step of duration 1 that requires one predicate, or unlinks or
    links one colour, strictly or as a placeholder; unnamed."""
    def step(pre=(), unlinks=(), links=(), placeholder=False):
        return WorkflowStep("", None, 1, pre, unlinks, links, placeholder)

    fact = st.sampled_from(COLORS).map(lambda c: (LinkTemplate("lamp", "Has_Quality", c),))
    return st.one_of(
        st.builds(step, pre=lamp_predicates(wildcards).map(lambda p: (p,))),
        st.builds(step, unlinks=fact, placeholder=st.booleans()),
        st.builds(step, links=fact, placeholder=st.booleans()),
    )


def lamp_bodies(wildcards: bool = True, straight: bool = False):
    """A mechanism body: a Seq of steps and, unless ``straight``, ifs and
    loops (``loop N`` for N in 0..3, ``loop until`` a predicate, ``loop
    until end``) nested up to two deep. An unbounded loop's body starts
    with a step, so each iteration takes a tick. Steps are named s0, s1,
    ... in body order."""
    return _bodies(wildcards, straight, 2).map(_number_steps)


def _bodies(wildcards: bool, straight: bool, depth: int):
    node = lamp_steps(wildcards)
    if not straight and depth > 0:
        inner = _bodies(wildcards, False, depth - 1)
        ticking = st.builds(lambda s, b: Seq((s, *b.items)), lamp_steps(wildcards), inner)
        guard = lamp_predicates(wildcards)
        node = st.one_of(
            node,
            st.builds(Cond, guard, inner, st.none() | inner),
            st.builds(lambda b, n: Loop(b, count=n), inner, st.integers(0, 3)),
            st.builds(lambda b, g: Loop(b, guard=g), ticking, guard),
            st.builds(lambda b: Loop(b, until_end=True), ticking),
        )
    return st.lists(node, max_size=4).map(lambda items: Seq(tuple(items)))


def _number_steps(body: Seq) -> Seq:
    names = (f"s{i}" for i in itertools.count())

    def name(node):
        if isinstance(node, WorkflowStep):
            return node._replace(name=next(names))
        if isinstance(node, Seq):
            return Seq(tuple(name(n) for n in node.items))
        if isinstance(node, Cond):
            return node._replace(then_body=name(node.then_body),
                                 else_body=None if node.else_body is None else name(node.else_body))
        return node._replace(body=name(node.body))

    return name(body)
