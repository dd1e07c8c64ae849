"""CLI behavior: exit codes and golden outputs for the shipped apps.

Regenerate goldens with:  XFO_REGEN_GOLDENS=1 pytest tests/test_cli.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xfo
from xfo import cli, dsl, loader

from helpers import GOLDEN_DIR, copy_models

REGEN = os.environ.get("XFO_REGEN_GOLDENS") == "1"
DATA_DIR = Path(__file__).parent / "data"

# (golden name, argv, optional produced file also goldened)
GOLDEN_CASES = [
    ("check_traffic.txt", ["check", "traffic.xfo"], None),
    ("check_school.txt", ["check", "school.xfo"], None),
    ("check_celadon.txt", ["check", "celadon.xfo"], None),
    ("run_traffic.txt",
     ["run", "traffic.xfo", "traffic_desk.xws", "--until", "12", "--trace", "traffic.trace.json"],
     None),
    ("run_school.txt",
     ["run", "school.xfo", "school_hire.xws", "--trace", "school.trace.json"], None),
    ("run_celadon.txt",
     ["run", "celadon.xfo", "celadon_run.xws", "--trace", "celadon.trace.json"], None),
    ("run_celadon_interrupt.txt",
     ["run", "celadon.xfo", "celadon_interrupt.xws", "--trace", "celadon_interrupt.trace.json"],
     None),
    ("run_celadon_broken.txt",
     ["run", "celadon.xfo", "celadon_broken.xws", "--trace", "celadon_broken.trace.json"], None),
    ("timeline_traffic.txt", ["timeline", "traffic.trace.json", "-o", "traffic.svg"],
     ("traffic.svg", "timeline_traffic.svg")),
    ("timeline_school.txt", ["timeline", "school.trace.json", "-o", "school.svg"],
     ("school.svg", "timeline_school.svg")),
    ("timeline_celadon.txt", ["timeline", "celadon.trace.json", "-o", "celadon.svg"],
     ("celadon.svg", "timeline_celadon.svg")),
    ("snapshot_traffic.txt", ["timeline", "traffic.trace.json", "-o", "traffic_at1.svg", "--at", "1"],
     ("traffic_at1.svg", "snapshot_traffic.svg")),
    # at the horizon tick every lamp shows none: spans end at the horizon
    ("snapshot_traffic_horizon.txt",
     ["timeline", "traffic.trace.json", "-o", "traffic_at12.svg", "--at", "12"],
     ("traffic_at12.svg", "snapshot_traffic_horizon.svg")),
    ("explain_traffic.txt", ["explain", "traffic.xfo", "TrafficLight"], None),
    ("explain_school.txt", ["explain", "school.xfo", "Person"], None),
    ("explain_celadon.txt", ["explain", "celadon.xfo", "Pottery"], None),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    copy_models(path)
    return path


@pytest.fixture(autouse=True)
def _chdir(workdir, monkeypatch):
    monkeypatch.chdir(workdir)


def _check_golden(name: str, content: str):
    path = GOLDEN_DIR / name
    if REGEN:
        path.write_text(content, encoding="utf-8")
        return
    assert path.exists(), f"golden {name} missing; regenerate with XFO_REGEN_GOLDENS=1"
    assert content == path.read_text(encoding="utf-8"), f"golden mismatch: {name}"


@pytest.mark.parametrize("golden,argv,extra", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden(golden, argv, extra, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    _check_golden(golden, out)
    if extra is not None:
        produced, golden_file = extra
        _check_golden(golden_file, Path(produced).read_text(encoding="utf-8"))


def test_run_pipeline_then_timeline(capsys):
    """cmd_run then cmd_timeline succeeds on every shipped scenario."""
    pairs = [
        ("traffic.xfo", "traffic_desk.xws"),
        ("school.xfo", "school_hire.xws"),
        ("celadon.xfo", "celadon_run.xws"),
        ("celadon.xfo", "celadon_interrupt.xws"),
        ("celadon.xfo", "celadon_broken.xws"),
    ]
    for model, scen in pairs:
        trace = f"pipe_{scen}.trace.json"
        assert cli.main(["run", model, scen, "--trace", trace]) == 0
        assert cli.main(["timeline", trace, "-o", f"pipe_{scen}.svg"]) == 0
    capsys.readouterr()


def test_check_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.xfo"
    bad.write_text(
        "universal Pottery is_a B_Object\n"
        "universal Pottery is_a B_Object\n"
        "universal X is_a Y\n",
        encoding="utf-8",
    )
    code = cli.main(["check", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "E_DUP_NAME" in out and "E_UNKNOWN_PARENT" in out
    assert "bad.xfo:2:1" in out


def test_check_warn_tier2(tmp_path, capsys):
    model = tmp_path / "warn.xfo"
    model.write_text(
        "universal Thing is_a B_Object\n"
        "universal Mark is_a B_Quality\n"
        "particular a instance_of Thing\n"
        "particular q instance_of Mark\n"
        "transitional t {\n"
        "  link a Has_Quality q\n"   # no covering declaration
        "}\n",
        encoding="utf-8",
    )
    assert cli.main(["check", str(model)]) == 1
    out1 = capsys.readouterr().out
    assert "E_INVALID_TEMPLATE" in out1
    assert cli.main(["check", str(model), "--warn-tier2"]) == 0
    out2 = capsys.readouterr().out
    assert "W_TIER2_UNCOVERED" in out2 and "warning" in out2


def test_run_warn_tier2_prints_warnings(tmp_path, capsys):
    (tmp_path / "m.xfo").write_text(
        "universal Thing is_a B_Object\n"
        "universal Mark is_a B_Quality\n"
        "particular a instance_of Thing\n"
        "particular q instance_of Mark\n",
        encoding="utf-8",
    )
    (tmp_path / "s.xws").write_text(
        "scenario s\nhorizon 2\ninit a Has_Quality q\n", encoding="utf-8",
    )
    # strict: the uncovered init link is a validation error
    assert cli.main(["run", str(tmp_path / "m.xfo"), str(tmp_path / "s.xws")]) == 1
    out = capsys.readouterr().out
    assert "E_INVALID_INIT_LINK" in out
    # warn mode: the run proceeds and the downgrade is reported
    assert cli.main(["run", str(tmp_path / "m.xfo"), str(tmp_path / "s.xws"),
                     "--warn-tier2"]) == 0
    out = capsys.readouterr().out
    assert "warning: tier-2" in out


def test_usage_errors(capsys):
    assert cli.main(["check", "no_such_file.xfo"]) == 2
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws", "--until", "99"]) == 2
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws", "--until", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: cannot read model file 'no_such_file.xfo'\n"
                                   "error: --until 99 is outside the scenario's ticks 0..12\n"
                                   "error: --until -3 is outside the scenario's ticks 0..12\n")
    assert cli.main(["nope"]) == 2
    assert cli.main([]) == 2
    capsys.readouterr()


def test_an_output_file_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws", "--trace", str(missing / "t.json")]) == 2
    assert capsys.readouterr().err == f"error: cannot write file '{missing / 't.json'}'\n"
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws", "--trace", "t4.trace.json"]) == 0
    capsys.readouterr()
    for view in ([], ["--at", "1"]):
        assert cli.main(["timeline", "t4.trace.json", "-o", str(missing / "x.svg"), *view]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write file '{missing / 'x.svg'}'\n")
    assert not missing.exists()


def test_run_broken_scenario_exits_zero(capsys):
    code = cli.main(["run", "celadon.xfo", "celadon_broken.xws"])
    out = capsys.readouterr().out
    assert code == 0  # broken runs are modeled outcomes
    assert "Broken" in out and "warning: run 0 broken at glost_firing" in out


def test_timeline_malformed_trace(tmp_path, capsys):
    trace = tmp_path / "trunc.trace.json"
    trace.write_text('{"model": "m", "scenario":', encoding="utf-8")
    assert cli.main(["timeline", str(trace), "-o", str(tmp_path / "x.svg")]) == 1
    out = capsys.readouterr().out
    assert "E_MALFORMED_TRACE" in out


def test_timeline_at_out_of_range(capsys):
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws", "--trace", "t2.trace.json"]) == 0
    assert cli.main(["timeline", "t2.trace.json", "-o", "t2.svg", "--at", "13"]) == 2
    capsys.readouterr()


def test_timeline_at_and_entities_are_a_usage_error(capsys):
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws", "--trace", "t3.trace.json"]) == 0
    code = cli.main(["timeline", "t3.trace.json", "-o", "t3.svg", "--at", "1",
                     "--entities", "lampA_green"])
    assert code == 2
    assert "not allowed with argument --at" in capsys.readouterr().err
    assert not Path("t3.svg").exists()


def test_timeline_draws_an_entity_named_twice_once(capsys):
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws", "--trace", "t4.trace.json"]) == 0
    assert cli.main(["timeline", "t4.trace.json", "-o", "once.svg", "--entities", "lampA_green"]) == 0
    assert cli.main(["timeline", "t4.trace.json", "-o", "twice.svg",
                     "--entities", "lampA_green", "lampA_green"]) == 0
    capsys.readouterr()
    twice = Path("twice.svg").read_text(encoding="utf-8")
    assert twice.count(">lampA_green</text>") == 1
    assert twice == Path("once.svg").read_text(encoding="utf-8")


def test_explain_unknown_entity(capsys):
    assert cli.main(["explain", "traffic.xfo", "Nope"]) == 1
    capsys.readouterr()


def test_explain_b_entity(capsys):
    assert cli.main(["explain", "traffic.xfo", "B_Entity"]) == 0
    out = capsys.readouterr().out
    assert "chain: B_Entity" in out  # chain of length 1


def test_explain_particular_lists_its_universals_relationships(capsys):
    """A particular has no links before a run; explain shows what is
    declared for its universal, each line naming that universal."""
    assert cli.main(["explain", "traffic.xfo", "lampA_green"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "  relationships:",
        "    out Continuant_Part_Of TrafficLight (via Lamp)",
        "    out Has_Quality Color (via Lamp)",
    ]


def test_files_may_start_with_a_utf8_bom(tmp_path, capsys):
    bom = tmp_path / "bom.xfo"
    bom.write_bytes(b"\xef\xbb\xbfmodel M\nuniversal Car is_a B_Object\n")
    assert cli.main(["check", str(bom)]) == 0
    assert capsys.readouterr().out == f"{bom}: ok (16 entities, 4 relation kinds, 0 warning(s))\n"
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws"]) == 0
    plain = capsys.readouterr().out
    for name in ("traffic.xfo", "traffic_desk.xws"):
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + Path(name).read_bytes())
    assert cli.main(["run", str(tmp_path / "traffic.xfo"), str(tmp_path / "traffic_desk.xws")]) == 0
    assert capsys.readouterr().out == plain
    # text handed to the parser is not a file: a BOM in it is a character
    diags = dsl.parse_model("\ufeffmodel M\n", "m.xfo").diagnostics
    assert [d.render() for d in diags] == ["m.xfo:1:1: error: [E_PARSE] unexpected character '\\ufeff'"]


def test_a_file_that_is_not_utf8_is_one_diagnostic(tmp_path, capsys):
    """A model or scenario file that is not UTF-8 gives one E_PARSE at its
    first bad byte, counted as the parser counts lines and columns, and no
    world or scenario; a trace that is not UTF-8 is malformed."""
    model = tmp_path / "latin.xfo"
    model.write_bytes("model M\nuniversal Café is_a B_Object\n".encode("latin-1"))
    not_utf8 = "error: [E_PARSE] file is not UTF-8 text: byte 0xe9: invalid continuation byte"
    assert cli.main(["check", str(model)]) == 1
    assert capsys.readouterr() == (f"latin.xfo:2:14: {not_utf8}\n{model}: 1 error(s), 0 warning(s)\n", "")
    world, diags = loader.load_model_path(model)
    assert world is None and [d.render() for d in diags] == [f"latin.xfo:2:14: {not_utf8}"]
    # after a BOM and a CRLF, and past a two-byte letter that is one column
    model.write_bytes(b"\xef\xbb\xbfmodel M\r\nuniversal \xc3\xa9x\xe9 is_a B_Object\n")
    assert [d.render() for d in loader.load_model_path(model)[1]] == [f"latin.xfo:2:13: {not_utf8}"]
    scenario = tmp_path / "latin.xws"
    scenario.write_bytes("scenario s\nhorizon 3\n# café\n".encode("latin-1"))
    assert cli.main(["run", "traffic.xfo", str(scenario)]) == 1
    assert capsys.readouterr() == (f"latin.xws:3:6: {not_utf8}\n", "")
    world, _ = loader.load_model_path("traffic.xfo")
    scen, diags = loader.load_scenario_path(scenario, world)
    assert scen is None and [d.render() for d in diags] == [f"latin.xws:3:6: {not_utf8}"]
    trace = tmp_path / "utf16.trace.json"
    trace.write_bytes("{}".encode("utf-16"))  # starts with the bytes ff fe
    assert cli.main(["timeline", str(trace), "-o", str(tmp_path / "x.svg")]) == 1
    assert capsys.readouterr() == (f"{trace}: error: [E_MALFORMED_TRACE] 'utf-8' codec can't decode "
                                   "byte 0xff in position 0: invalid start byte\n", "")
    assert not (tmp_path / "x.svg").exists()


SLOT_TWICE = "frame 'Employment': binding names slot 'person' twice"


@pytest.mark.parametrize("line,word", [(8, "activate"), (9, "deactivate")])
def test_a_scenario_binding_that_names_a_slot_twice_is_refused(line, word, tmp_path, capsys):
    """A frame binding names each slot once: a scenario's activate or
    deactivate line that names one twice is one diagnostic at that line,
    and nothing runs."""
    lines = Path("school_hire.xws").read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[line - 1].startswith(f"{word} Employment(") and "person=teacher1," in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace("person=teacher1,", "person=teacher1, person=teacher2,")
    scenario = tmp_path / "twice.xws"
    scenario.write_text("".join(lines), encoding="utf-8")
    trace = tmp_path / "twice.trace.json"
    assert cli.main(["run", "school.xfo", str(scenario), "--trace", str(trace)]) == 1
    assert capsys.readouterr() == (
        f"twice.xws:{line}:1: error: [E_DUP_NAME] scenario 'school_hire': {SLOT_TWICE}\n", "")
    assert not trace.exists()


def test_a_rule_binding_that_names_a_slot_twice_is_refused(tmp_path, capsys):
    """A rule's then that names a frame slot twice is one diagnostic at
    the rule."""
    model = tmp_path / "twice.xfo"
    text = Path("school.xfo").read_text(encoding="utf-8")
    model.write_text(text + (
        "\nrule rehire {\n"
        "  when not_exists any:Person Has_Role teacher_role\n"
        "  then activate_frame Employment(role=teacher_role, organization=norfolk_schools, "
        "person=teacher1, person=teacher2, compensation=teacher_salary, duration=one_year_term, "
        "rights=classroom_rights, responsibilities=teaching_duties)\n"
        "}\n"), encoding="utf-8")
    line = text.count("\n") + 2
    assert cli.main(["check", str(model)]) == 1
    assert capsys.readouterr() == (
        f"twice.xfo:{line}:1: error: [E_DUP_NAME] rule 'rehire': {SLOT_TWICE}\n"
        f"{model}: 1 error(s), 0 warning(s)\n", "")


@pytest.mark.parametrize("workflow", ["if_only", "until_only"])
def test_a_number_for_a_parameter_written_only_in_a_guard_is_refused_at_the_run_line(
        workflow, tmp_path, capsys):
    """A parameter written only in an if or a loop until guard is an
    entity: a run that passes a number is one diagnostic at its line, not
    an error mid-run, and nothing runs."""
    scenario = tmp_path / "guard.xws"
    scenario.write_text(f"scenario s\nhorizon 4\nrun {workflow}(3) at 0\n", encoding="utf-8")
    trace = tmp_path / "guard.trace.json"
    assert cli.main(["run", str(DATA_DIR / "param_kinds.xfo"), str(scenario), "--trace", str(trace)]) == 1
    assert capsys.readouterr() == (
        "guard.xws:3:1: error: [E_RESOLVE] scenario 's': parameter 'x' needs an entity, got 3\n", "")
    assert not trace.exists()


def test_a_rule_that_starts_a_workflow_with_a_number_for_a_guard_parameter_is_refused(tmp_path, capsys):
    """The same argument in a rule's start_workflow is one diagnostic at
    the rule."""
    model = tmp_path / "rule.xfo"
    text = (DATA_DIR / "param_kinds.xfo").read_text(encoding="utf-8")
    model.write_text(text + (
        "rule restart {\n"
        "  when not_exists a Has_Quality q\n"
        "  then start_workflow if_only(3)\n"
        "}\n"), encoding="utf-8")
    line = text.count("\n") + 1
    assert cli.main(["check", str(model)]) == 1
    assert capsys.readouterr() == (
        f"rule.xfo:{line}:1: error: [E_RESOLVE] rule 'restart': parameter 'x' needs an entity, got 3\n"
        f"{model}: 1 error(s), 0 warning(s)\n", "")


def test_a_duration_that_is_not_a_parameter_is_refused_at_the_workflow(tmp_path, capsys):
    model = tmp_path / "timed.xfo"
    model.write_text("model m\nmechanism timed(x) {\n  step s {\n    duration d\n  }\n}\n", encoding="utf-8")
    assert cli.main(["check", str(model)]) == 1
    assert capsys.readouterr() == (
        "timed.xfo:2:1: error: [E_INVALID_TEMPLATE] workflow 'timed': step 's' duration 'd' is not a parameter\n"
        f"{model}: 1 error(s), 0 warning(s)\n", "")


def _cli_in_data_dir(argv: list[str]) -> subprocess.CompletedProcess:
    """``xfo`` run in a fresh process from ``tests/data``, with ``src`` on
    its path."""
    src = Path(xfo.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "xfo.cli", *argv],
        cwd=DATA_DIR, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_lexical_errors_golden_in_a_fresh_process():
    """Every E_PARSE of a file of lexical corner cases (comments, tabs,
    wildcards, non-ASCII letters, stray characters, text after '}'). The
    golden was written by the per-token tokenizer this one replaced, and
    regenerated once only to print the diagnostics in line order; CI diffs
    the installed console script against it."""
    proc = _cli_in_data_dir(["check", "--warn-tier2", "lexical_errors.xfo"])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "check_lexical_errors.txt").read_text(encoding="utf-8")


def test_clause_errors_golden_in_a_fresh_process():
    """A wrong keyword in each form the parser reads from a fixed keyword
    set, and a rule's second 'then': each is reported at that word. CI
    diffs the installed console script against the same golden."""
    proc = _cli_in_data_dir(["check", "--warn-tier2", "clause_errors.xfo"])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (GOLDEN_DIR / "check_clause_errors.txt").read_text(encoding="utf-8")


def test_repeated_clauses_golden_in_a_fresh_process():
    """A step's second 'agent' or 'duration' line, and a workflow parameter
    that is not a name: each is reported at that word. CI diffs the
    installed console script against the same golden."""
    proc = _cli_in_data_dir(["check", "--warn-tier2", "repeated_clauses.xfo"])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (GOLDEN_DIR / "check_repeated_clauses.txt").read_text(encoding="utf-8")


def test_missing_clauses_golden_in_a_fresh_process():
    """A rule with no 'when', one with no 'then' and one with neither:
    each missing clause is reported at its rule's line, and the wrong
    keywords in the blocks after each rule are reported too. CI diffs the
    installed console script against the same golden."""
    proc = _cli_in_data_dir(["check", "--warn-tier2", "missing_clauses.xfo"])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (GOLDEN_DIR / "check_missing_clauses.txt").read_text(encoding="utf-8")


def test_else_recovery_golden_in_a_fresh_process():
    """An 'else' line with no '{' is one error at its line; parsing resumes
    in the workflow body, so the statements after the workflow are read
    and a wrong keyword in one of them is reported too. CI diffs the
    installed console script against the same golden."""
    proc = _cli_in_data_dir(["check", "--warn-tier2", "else_recovery.xfo"])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (GOLDEN_DIR / "check_else_recovery.txt").read_text(encoding="utf-8")


def test_block_trailer_golden_in_a_fresh_process():
    """Text after a block's '}' is one error at that text, and the block it
    opens is skipped whole: the steps after it stay in the workflow, and
    the statements after the workflow are read, so a wrong keyword in one
    of them is reported too. CI diffs the installed console script
    against the same golden."""
    proc = _cli_in_data_dir(["check", "--warn-tier2", "block_trailer.xfo"])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (GOLDEN_DIR / "check_block_trailer.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("golden,argv", [
    ("check_param_kinds_faults.txt", ["check", "param_kinds_faults.xfo"]),
    ("run_param_kinds_faults.txt", ["run", "param_kinds.xfo", "param_kinds_faults.xws"]),
], ids=["check", "run"])
def test_load_diagnostics_golden_in_a_fresh_process(golden, argv):
    """Workflow and scenario faults found at load, each at its line: a
    duration that is not a parameter, a parameter written both in a guard
    and as a duration, numbers for parameters written only in guards, and
    scenario actions whose faults carry the codes they have in a rule. CI
    diffs the installed console script against the same goldens."""
    proc = _cli_in_data_dir(argv)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def test_diagnostics_are_printed_in_line_order(capsys):
    """The tokenizer records a bad character's E_PARSE before any parser
    error; the printed (line, column) never decreases all the same."""
    data = DATA_DIR / "lexical_errors.xfo"
    assert cli.main(["check", "--warn-tier2", str(data)]) == 1
    lines = capsys.readouterr().out.splitlines()[:-1]  # the last is the summary
    spans = [tuple(map(int, line.split(": ")[0].split(":")[-2:])) for line in lines]
    assert len(spans) == 12 and spans == sorted(spans)


def test_trace_file_is_valid_json(capsys):
    assert cli.main(["run", "traffic.xfo", "traffic_desk.xws", "--trace", "t3.trace.json"]) == 0
    capsys.readouterr()
    doc = json.loads(Path("t3.trace.json").read_text(encoding="utf-8"))
    assert list(doc) == ["model", "scenario", "horizon", "version", "events"]
    assert doc["model"] == "Traffic" and doc["horizon"] == 12
    assert list(doc["events"][0]) == ["seq", "at", "kind", "payload"]
