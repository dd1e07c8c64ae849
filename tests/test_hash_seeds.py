"""Nothing xfo prints or writes depends on string hashing (set or dict
order). One child interpreter under PYTHONHASHSEED=1 and one under 2 each
print a report of the shipped inputs, in-process through ``cli.main`` and
the library, and the two reports must be equal:

- each shipped run, with the sha256 of its trace and of its timeline SVG;
- the sha256 of its snapshot SVG at every tick, from 0 to the horizon;
- ``World.state_of`` of every particular at every tick of each run;
- ``xfo explain`` of every entity of every shipped model;
- ``check_completeness(wf, ())`` of every workflow of every shipped model.

Every command must exit 0, and every trace's sha256 must be its pin.

Run as a script, this file prints the report to stdout and writes the
traces and SVGs into the working directory:  python tests/test_hash_seeds.py
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from xfo import cli
from xfo.dynamics import check_completeness
from xfo.ontology import Layer

from helpers import MODELS_DIR, SHIPPED_MODELS, SHIPPED_RUNS, SHIPPED_TRACE_SHA256, load_world, run_scenario


def xfo(*argv: str) -> None:
    """Run one xfo command in-process, then print its exit status."""
    code = cli.main(list(argv))
    print(f"xfo {' '.join(argv)}: exit {code}")


def sha256(name: str) -> str:
    return f"{name}: sha256 {hashlib.sha256(Path(name).read_bytes()).hexdigest()}"


def print_report() -> None:
    for model, scenario in SHIPPED_RUNS:
        name = scenario[: -len(".xws")]
        trace = f"{name}.trace.json"
        xfo("run", str(MODELS_DIR / model), str(MODELS_DIR / scenario), "--trace", trace)
        print(sha256(trace))
        xfo("timeline", trace, "-o", f"{name}.svg")
        print(sha256(f"{name}.svg"))
        world, _, scen = run_scenario(model, scenario)
        for at in range(scen.horizon + 1):
            xfo("timeline", trace, "-o", f"{name}.at{at}.svg", "--at", str(at))
            print(sha256(f"{name}.at{at}.svg"))
        for entity in world.registry.entities():
            if entity.layer is Layer.P:
                print(*(world.state_of(entity.name, at) for at in range(scen.horizon + 1)))
    for model in SHIPPED_MODELS:
        world = load_world(model)
        for entity in world.registry.entities():
            xfo("explain", str(MODELS_DIR / model), entity.name)
        for name, wf in world.workflows.items():
            print(model, name, check_completeness(wf, ()))


def test_same_report_under_two_hash_seeds(tmp_path):
    assert sorted(s for _, s in SHIPPED_RUNS) == sorted(SHIPPED_TRACE_SHA256) == sorted(
        p.name for p in MODELS_DIR.glob("*.xws"))
    assert sorted(SHIPPED_MODELS) == sorted(p.name for p in MODELS_DIR.glob("*.xfo"))
    # the child imports xfo from where this process does, and helpers from
    # this file's directory, which Python puts first on a script's path
    path = os.pathsep.join(filter(None, [str(MODELS_DIR.parents[1]), os.environ.get("PYTHONPATH")]))
    children = {}
    for seed in (1, 2):
        cwd = tmp_path / str(seed)
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        with open(cwd / "out", "w") as out, open(cwd / "err", "w") as err:
            children[cwd] = subprocess.Popen([sys.executable, __file__], cwd=cwd, env=env, stdout=out, stderr=err)
    try:
        for cwd, child in children.items():
            assert child.wait(timeout=120) == 0
            assert (cwd / "err").read_text() == ""
    finally:
        for child in children.values():
            child.kill()  # a no-op on a child that has exited
            child.wait()
    out1, out2 = ((cwd / "out").read_text() for cwd in children)
    assert out1 == out2
    lines = out1.splitlines()
    statuses = [line for line in lines if line.startswith("xfo ")]
    assert statuses and all(line.endswith(": exit 0") for line in statuses)
    for scenario, digest in SHIPPED_TRACE_SHA256.items():
        assert f"{scenario[: -len('.xws')]}.trace.json: sha256 {digest}" in lines, scenario


if __name__ == "__main__":
    print_report()
