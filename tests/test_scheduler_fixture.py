"""The scheduler against a fixture recorded from the one it replaced, whose
queue held tagged ``("start", run)`` and ``("step_end", run, step)`` tuples
and whose cursor was a stack machine over ``["seq"|"loop", node, i]``
frames: models, scenarios and operations drawn from
``test_time_advance.worlds``, each with what ``_observe`` saw of that
scheduler (every call's outcome and ``now``, the trace as its sha256, and
the summary). It was written again once, when ``Simulation.interrupt``
came to refuse a tick past the horizon; no case changed, as none asks to
interrupt a live run past it.

Write the fixture again (only with a scheduler known to be right) with:
    PYTHONPATH=src python tests/test_scheduler_fixture.py
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hypothesis import given, settings

from xfo.microworld import RunStatus, Simulation

from test_time_advance import _observe, _simulation, worlds

FIXTURE = Path(__file__).parent / "data" / "scheduler_runs.json"
CASES = 230


def observe(case: dict) -> tuple[dict, list]:
    """The recorded form of ``_observe`` on ``case``, and the trace's events."""
    out = _observe(_simulation(Simulation, case["model"], case["scenario"]), case["ops"])
    events = json.loads(out["trace"])["events"]
    out["trace"] = hashlib.sha256(out["trace"].encode("utf-8")).hexdigest()
    return json.loads(json.dumps(out)), events


def record() -> None:
    cases = []

    @settings(max_examples=CASES, derandomize=True, deadline=None, database=None)
    @given(worlds())
    def draw(case):
        cases.append(case)

    draw()
    rows = []
    for model, scenario, ops in cases:
        case = {"model": model, "scenario": scenario, "ops": ops}
        case["observed"] = observe(case)[0]
        rows.append(json.dumps(case))
    FIXTURE.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="ascii")  # one case a line


def _lands_on_a_step_end(events: list) -> bool:
    """Whether a run's StepEnd follows its Interrupt at the same tick."""
    interrupted = set()
    for e in events:
        key = (e["payload"].get("run"), e["at"])
        if e["kind"] == "Interrupt":
            interrupted.add(key)
        elif e["kind"] == "StepEnd" and key in interrupted:
            return True
    return False


def test_scheduler_reproduces_the_recorded_runs():
    cases = json.loads(FIXTURE.read_text(encoding="ascii"))
    assert len(cases) == CASES
    statuses, boundaries = set(), 0
    for i, case in enumerate(cases):
        observed, events = observe(case)
        assert observed == case["observed"], (i, case["model"], case["scenario"], case["ops"])
        statuses.update(status for _, _, status, _ in observed["summary"])
        boundaries += _lands_on_a_step_end(events)
    # the fixture reaches every status, and an interrupt at a step's end
    # tick, which lets that step apply
    assert statuses == {s.value for s in RunStatus}
    assert boundaries > 0


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    record()
