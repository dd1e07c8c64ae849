"""The reference interpreter itself: it stays independent of the engine,
and hand-written cases, each compared with the engine and asserted
explicitly, reach every run status, an interrupt at a step's end tick, a
refused directive, a refused rule action and a run_until call retried
after it raised. Generated lamp mechanisms are compared too."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from xfo.dynamics import Workflow

from helpers import LAMP_MODEL, lamp_bodies, lamp_facts
from test_time_advance import run_both

TESTS = Path(__file__).parent


def test_the_reference_imports_no_xfo_module():
    # -I: no PYTHONPATH and no script directory; -S: no site-packages. So
    # the child's path is the standard library and tests/ alone
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import reference; "
            "print([m for m in sys.modules if m == 'xfo' or m.startswith('xfo.')])")
    child = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(TESTS)],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr, child.stdout) == (0, "", "[]\n")


CASES = """model Cases
universal Thing is_a B_Object
particular a instance_of Thing
particular b instance_of Thing
relation K0 from B_Object to B_Object
relation K1 from B_Object to B_Object
relate Thing K0 Thing
relate Thing K1 Thing
transitional link_k0 {
  link a K0 b
}
transitional unlink_k0 {
  unlink a K0 b
}
transitional link_k1 {
  link a K1 b
}
mechanism quick {
  step s {
    duration 1
  }
}
mechanism slow {
  step s {
    duration 20
  }
}
mechanism needs_k0 {
  step s {
    duration 1
    require exists a K0 b
  }
}
mechanism writes {
  step first {
    duration 2
    effect link a K0 b
  }
  step second {
    duration 1
  }
}
"""


def _events(got: dict) -> list[tuple]:
    return [(e["at"], e["kind"], e["payload"].get("run", e["payload"].get("rule")))
            for e in json.loads(got["trace"])["events"]]


def _calls(got: dict) -> list[tuple[bool, int]]:
    return [(refused, now) for _, refused, now in got["calls"]]


def test_every_run_status_and_an_interrupt_at_a_step_end():
    scenario = "\n".join([
        "scenario statuses", "horizon 10",
        "run quick() at 0",     # 0: its step ends at 1
        "run slow() at 0",      # 1: its step ends at 20, past the horizon
        "run needs_k0() at 0",  # 2: nothing links a K0 b before 2
        "run writes() at 0",    # 3: its first step ends at 2, the interrupt's tick
        "interrupt 3 at 2",
        "run quick() at 8",     # 4: not reached by the call
    ]) + "\n"
    got, _ = run_both(CASES, scenario, [("run_until", 5)])
    assert _calls(got) == [(False, 6)]
    assert got["summary"] == [
        (0, "quick", "Completed", "s"),
        (1, "slow", "Running", None),
        (2, "needs_k0", "Broken", None),
        (3, "writes", "Interrupted", "first"),
        (4, "quick", "Pending", None),
    ]
    # the interrupt, queued first, still lets the step ending at its tick apply
    assert [e for e in _events(got) if e[0] == 2] == [(2, "Interrupt", 3), (2, "Link", None), (2, "StepEnd", 3)]


def test_refused_directives_and_interrupt_calls():
    scenario = "\n".join([
        "scenario refusals", "horizon 5",
        "run quick() at 0",
        "apply unlink_k0 at 1",  # refused: a K0 b is not active
        "interrupt 0 at 3",      # refused: run 0 completed at 1
    ]) + "\n"
    ops = [
        ("interrupt", 0, -1),  # refused: a tick already processed
        ("interrupt", 0, 6),   # refused: past the horizon
        ("interrupt", 1, 0),   # refused: no run 1
        ("run_until", 5), ("run_until", 5), ("run_until", 5),
        ("interrupt", 0, 0),   # refused: run 0 is Completed
    ]
    got, _ = run_both(CASES, scenario, ops)
    assert _calls(got) == [(True, 0), (True, 0), (True, 0), (True, 1), (True, 3), (False, 6), (True, 6)]
    assert got["summary"] == [(0, "quick", "Completed", "s")]


def test_a_refused_rule_action_leaves_no_rule_fired_and_is_retried():
    rules = "rule grab {\n  when exists a K0 b\n  then apply_transitional link_k0\n}\n"
    scenario = "scenario grab\nhorizon 5\nrule grab\napply link_k0 at 2\n"
    got, _ = run_both(CASES + rules, scenario, [("run_until", 4), ("run_until", 4)])
    assert _calls(got) == [(True, 2), (True, 2)]
    assert _events(got) == [(2, "Link", None)]


def test_a_later_rule_an_action_makes_true_fires_in_the_same_phase():
    rules = ("rule first {\n  when exists a K0 b\n  then apply_transitional link_k1\n}\n"
             "rule second {\n  when exists a K1 b\n  then start_workflow quick()\n}\n")
    scenario = "scenario chain\nhorizon 5\nrule first\nrule second\napply link_k0 at 2\n"
    got, _ = run_both(CASES + rules, scenario, [("run_until", 5)])
    fired = [e for e in _events(got) if e[1] == "RuleFired"]
    assert fired == [(2, "RuleFired", "first"), (2, "RuleFired", "second")]


def test_a_failed_run_until_runs_the_rules_phase_of_its_tick_again():
    # at tick 1, A fires and unlinks a K0 b; B then fails to unlink it, so
    # the call raises with now at 1. Each retry drains the rest of tick 1
    # and runs its whole rules phase again: after a K0 b is linked again
    # from outside, A fires a second time at tick 1
    rules = ("rule A {\n  when exists a K0 b\n  then apply_transitional unlink_k0\n}\n"
             "rule B {\n  when exists a K1 b\n  then apply_transitional unlink_k0\n}\n")
    scenario = "scenario retry\nhorizon 3\nrule A\nrule B\napply link_k0 at 1\napply link_k1 at 1\n"
    ops = [("run_until", 1), ("run_until", 1), ("apply", "link_k0"), ("run_until", 1)]
    got, _ = run_both(CASES + rules, scenario, ops)
    assert _calls(got) == [(True, 1), (True, 1), (False, 1), (True, 1)]
    assert [e for e in _events(got) if e[1] == "RuleFired"] == [(1, "RuleFired", "A")] * 2


@settings(max_examples=100, deadline=None)
@given(lamp_bodies(), lamp_facts(), st.integers(1, 12), st.none() | st.integers(0, 12))
def test_lamp_mechanisms_match_the_reference(body, facts, horizon, interrupt):
    lines = ["scenario lamps", f"horizon {horizon}", "run w() at 0"]
    lines += [f"init {t.from_ref} {t.kind} {t.to_ref}" for t in facts]
    if interrupt is not None and interrupt <= horizon:
        lines.append(f"interrupt 0 at {interrupt}")
    run_both(LAMP_MODEL, "\n".join(lines) + "\n", [("run_until", horizon)],
             extra=[Workflow("w", (), body, requires_agent=False)])
