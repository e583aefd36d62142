"""Report output: the exit status, and the text and JSON forms of a verdict list."""

import json

import pytest

from gradedhpt.report import FAIL, PASS, UNDETERMINED, Report


def report_with(*verdicts) -> Report:
    rep = Report("verdicts", bounds={"W": 3, "corpus": (2, 1), "N": 2})
    ok = {PASS: True, FAIL: False, UNDETERMINED: None}
    for i, verdict in enumerate(verdicts):
        rep.add(f"claim {i}", ok[verdict], "" if verdict == PASS else f"detail {i}")
    return rep


@pytest.mark.parametrize("verdicts, status", [
    ((), 0),
    ((PASS, PASS), 0),
    ((PASS, UNDETERMINED), 2),
    ((UNDETERMINED, UNDETERMINED), 2),
    ((PASS, FAIL), 1),
    ((UNDETERMINED, FAIL, PASS), 1),
])
def test_exit_status(verdicts, status):
    assert report_with(*verdicts).exit_status() == status


@pytest.mark.parametrize("verdicts, summary", [
    ((), PASS),
    ((PASS, UNDETERMINED), UNDETERMINED),
    ((UNDETERMINED, FAIL, PASS), FAIL),
])
def test_to_json_round_trips(verdicts, summary):
    rep = report_with(*verdicts)
    payload = json.loads(rep.to_json())
    assert payload["title"] == "verdicts"
    assert list(payload["bounds"]) == ["N", "W", "corpus"]
    assert payload["bounds"] == {"N": 2, "W": 3, "corpus": [2, 1]}
    assert payload["checks"] == [{"name": i.name, "verdict": i.verdict, "detail": i.detail}
                                 for i in rep.items]
    assert [c["verdict"] for c in payload["checks"]] == list(verdicts)
    assert payload["summary"] == summary


@pytest.mark.parametrize("verdicts, summary", [
    ((PASS,), "all PASS"),
    ((PASS, UNDETERMINED), "UNDETERMINED"),
    ((UNDETERMINED, FAIL, PASS), "FAIL"),
])
def test_to_text_lists_bounds_lines_and_summary(verdicts, summary):
    rep = report_with(*verdicts)
    lines = rep.to_text().split("\n")
    assert lines[0] == "== verdicts =="
    assert lines[1] == "bounds: N=2, W=3, corpus=(2, 1)"
    assert lines[2:-1] == [i.line() for i in rep.items]
    assert lines[-1] == f"-- {summary} ({len(verdicts)} checks)"


def test_check_item_line_pads_the_verdict_and_brackets_the_detail():
    rep = report_with(PASS, FAIL, UNDETERMINED)
    assert [i.line() for i in rep.items] == [
        "PASS         claim 0",
        "FAIL         claim 1  [detail 1]",
        "UNDETERMINED claim 2  [detail 2]",
    ]
