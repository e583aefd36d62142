"""Report output: the exit status, and the text and JSON forms of a verdict list;
and the one scope rule, ``scan``."""

import json

import pytest

from gradedhpt.core import Overflow
from gradedhpt.report import FAIL, PASS, UNDETERMINED, Report, scan


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


@pytest.mark.parametrize("levels, result, evaluated", [
    ([], (None, None), []),
    ([(0, ["ok"]), (1, ["ok"])], (1, None), ["ok", "ok"]),
    # levels in any order, repeated: the least level with a witness, its first
    ([(2, ["ok", "bad2"]), (1, ["bad1", "bad1b"]), (1, ["bad1c"]), (3, ["bad3"])],
     (1, "bad1"), ["ok", "bad2", "bad1"]),
    # an Overflow below every witness: the levels below it, no witness
    ([(2, ["bad2"]), (1, ["raise"]), (0, ["ok"]), (2, ["bad2b"])], (0, None),
     ["bad2", "raise", "ok"]),
    # a witness at the Overflow level counts, as in an increasing scan
    ([(1, ["raise", "bad1"]), (0, ["ok"])], (1, "bad1"), ["raise", "bad1", "ok"]),
    ([(2, ["raise"]), (3, ["ok", "bad3"]), (1, ["ok"])], (1, None), ["raise", "ok"]),
    # a gap below the Overflow: the scope reaches it only over an evaluated case,
    # else it is the least level minus one, and holds nothing
    ([(2, []), (3, ["ok"]), (5, ["raise"])], (4, None), ["ok", "raise"]),
    ([(2, []), (4, ["raise"]), (5, ["ok"])], (1, None), ["raise"]),
    ([(0, ["raise"])], (-1, None), ["raise"]),
])
def test_scan_in_any_order(levels, result, evaluated):
    seen = []

    def check(case):
        seen.append(case)
        if case == "raise":
            raise Overflow(case)
        return case if case.startswith("bad") else None

    assert scan(levels, check) == result
    assert seen == evaluated
