"""Verdict census: an opt-in pytest plugin that records, over a test run, the
set of verdicts each claim received in each test.

    python -m pytest -q -p tests.verdict_census --census=census.txt

An entry is keyed by the test id, the report title and the claim name, as the
suite and the report print them, so a verdict that moves between two arities,
two bounds or two tests shows.  Each line of the file is
``test | title | claim | verdicts``, sorted, so the census of two commits
compares with ``diff``.  A run without ``--census`` records nothing.
"""

from pathlib import Path

from gradedhpt.report import Report

_current = {"test": ""}


def pytest_addoption(parser):
    parser.addoption("--census", default=None,
                     help="write the verdict census of the run to this file")


def pytest_runtest_logstart(nodeid, location):
    _current["test"] = nodeid


def pytest_configure(config):
    path = config.getoption("--census")
    if path is None:
        return
    seen: dict = {}
    add = Report.add

    def recorded(self, name, ok, detail=""):
        add(self, name, ok, detail)
        seen.setdefault((_current["test"], self.title, name), set()).add(self.items[-1].verdict)

    Report.add = recorded
    config._census = (Path(path), seen, add)


def pytest_unconfigure(config):
    census = getattr(config, "_census", None)
    if census is None:
        return
    path, seen, add = census
    Report.add = add
    path.write_text("".join(f"{' | '.join(key)} | {','.join(sorted(verdicts))}\n"
                            for key, verdicts in sorted(seen.items())))
