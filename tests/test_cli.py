"""CLI behavior: exit codes, and the golden outputs of the shipped apps
and of the diagnostics files in tests/data.

Every golden is one row of tests/cli_goldens.txt, which CI also reads.
Each row runs alone, in a fresh copy of its directory; a timeline row
first runs the row that writes its trace.
Regenerate all of them with:  XFO_REGEN_GOLDENS=1 pytest tests/test_cli.py
"""
from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import NamedTuple

import pytest

from xfo import cli, dsl, loader

from helpers import DATA_DIR, GOLDEN_DIR, MODELS_DIR

REGEN = os.environ.get("XFO_REGEN_GOLDENS") == "1"
ROW_DIRS = {"models": MODELS_DIR, "data": DATA_DIR}


class GoldenRow(NamedTuple):
    """One row of tests/cli_goldens.txt; "-" marks no produced file."""
    golden: str
    where: str
    status: int
    produced: str
    produced_golden: str
    argv: list[str]


def _golden_rows() -> list[GoldenRow]:
    rows = []
    for line in (Path(__file__).parent / "cli_goldens.txt").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            golden, where, status, produced, produced_golden, *argv = line.split()
            rows.append(GoldenRow(golden, where, int(status), produced, produced_golden, argv))
    return rows


GOLDEN_ROWS = _golden_rows()


def copy_row_dirs(root: Path) -> None:
    """Scratch copies of the directories the rows run in, under root."""
    for where, src in ROW_DIRS.items():
        shutil.copytree(src, root / where)


def run_row(row: GoldenRow, root: Path, monkeypatch, capsys) -> list[tuple[str, str]]:
    """Run one row in its directory under root, check its exit status, its
    empty stderr and that a failing row writes no file, and return each
    golden the row names with the text it is compared to."""
    monkeypatch.chdir(root / row.where)
    before = sorted(os.listdir())
    code = cli.main(row.argv)
    out, err = capsys.readouterr()
    assert (code, err) == (row.status, ""), out
    if code:
        assert sorted(os.listdir()) == before, "a failing row wrote a file"
    if row.produced == "-":
        return [(row.golden, out)]
    return [(row.golden, out), (row.produced_golden, Path(row.produced).read_text(encoding="utf-8"))]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    copy_row_dirs(root)
    return root / "models"


@pytest.fixture(autouse=True)
def _chdir(workdir, monkeypatch):
    monkeypatch.chdir(workdir)


def writer_of(row: GoldenRow) -> GoldenRow | None:
    """The row that writes the trace a timeline row reads, else None."""
    if row.argv[0] != "timeline":
        return None
    return next(r for r in GOLDEN_ROWS
                if r.where == row.where and r.argv[-2:] == ["--trace", row.argv[1]])


@pytest.mark.parametrize("row", GOLDEN_ROWS, ids=[r.golden for r in GOLDEN_ROWS])
def test_golden(row, tmp_path, monkeypatch, capsys):
    copy_row_dirs(tmp_path)
    writer = writer_of(row)
    if writer is not None:
        run_row(writer, tmp_path, monkeypatch, capsys)
    for name, content in run_row(row, tmp_path, monkeypatch, capsys):
        path = GOLDEN_DIR / name
        if REGEN:
            path.write_text(content, encoding="utf-8")
        else:
            assert content == path.read_text(encoding="utf-8"), f"golden mismatch: {name}"


def test_every_golden_is_named_by_exactly_one_row():
    named = [name for r in GOLDEN_ROWS for name in (r.golden, r.produced_golden) if name != "-"]
    assert sorted(named) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert all((r.produced == "-") == (r.produced_golden == "-") for r in GOLDEN_ROWS)


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
    for command in (["check", "traffic.xfo"], ["run", "traffic.xfo", "traffic_desk.xws"]):
        assert cli.main([*command, "--strict-tier2"]) == 2  # strict is the default, not an option
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --strict-tier2" in err
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


def test_timeline_refuses_a_trace_nested_too_deeply(tmp_path, capsys):
    """JSON nested past the recursion limit is one malformed-trace line with
    fixed text, not a traceback."""
    trace = tmp_path / "deep.trace.json"
    trace.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert cli.main(["timeline", str(trace), "-o", str(tmp_path / "x.svg")]) == 1
    assert capsys.readouterr() == (f"{trace}: error: [E_MALFORMED_TRACE] not valid JSON: nested too deeply\n", "")


LINK = {"from": "lampA", "relation": "Has_Quality", "to": "red"}


@pytest.mark.parametrize("view", [[], ["--at", "0"]], ids=["timeline", "at"])
@pytest.mark.parametrize("field,payload", [
    ("from", {**LINK, "from": 1}),
    ("to", {**LINK, "to": ["red"]}),
    ("relation", {"from": "lampA", "to": "red"}),
], ids=["int", "list", "missing"])
def test_timeline_refuses_a_link_field_that_is_not_a_string(field, payload, view, tmp_path, capsys):
    """A Link field that is missing or not a string is one malformed-trace
    line, not a traceback, in the timeline and in a snapshot."""
    trace = tmp_path / "bad.trace.json"
    event = {"seq": 0, "at": 0, "kind": "Link", "payload": payload}
    trace.write_text(json.dumps({"model": "m", "scenario": "s", "horizon": 1, "version": 1,
                                 "events": [event]}), encoding="utf-8")
    svg = tmp_path / "x.svg"
    assert cli.main(["timeline", str(trace), "-o", str(svg), *view]) == 1
    assert capsys.readouterr() == (
        f"{trace}: error: [E_MALFORMED_TRACE] event seq 0: payload '{field}' is missing or not a string\n", "")
    assert not svg.exists()


@pytest.mark.parametrize("kinds,message", [
    (["Link", "Link"], "event seq 1: duplicate Link for lampA Has_Quality red"),
    (["Unlink"], "event seq 0: Unlink without active Link for lampA Has_Quality red"),
    (["Link", "Unlink", "Unlink"], "event seq 2: Unlink without active Link for lampA Has_Quality red"),
], ids=["second-link", "unlink-first", "second-unlink"])
def test_timeline_refuses_a_link_edit_that_does_not_replay(kinds, message, tmp_path, capsys):
    """A hand-edited trace whose Link and Unlink events of one triple do
    not alternate, starting with a Link, is one malformed-trace line."""
    trace = tmp_path / "edited.trace.json"
    events = [{"seq": i, "at": i, "kind": kind, "payload": LINK} for i, kind in enumerate(kinds)]
    trace.write_text(json.dumps({"model": "m", "scenario": "s", "horizon": 5, "version": 1,
                                 "events": events}), encoding="utf-8")
    svg = tmp_path / "x.svg"
    for view in ([], ["--at", "6"]):  # a tick past the horizon: the malformed trace is reported first
        assert cli.main(["timeline", str(trace), "-o", str(svg), *view]) == 1
        assert capsys.readouterr() == (f"{trace}: error: [E_MALFORMED_TRACE] {message}\n", "")
    assert not svg.exists()


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
