"""Verdict bookkeeping shared by the structure checkers, and the one scope rule.

A claim is evaluated level by level (word or key weight, arity, ...) until a
level leaves the guard of a backend (an ``Overflow``).  The claim is decided on
the levels below, and that scope is recorded in the report's bounds; a claim
whose scope holds nothing it is about is UNDETERMINED, never PASS.  An arity-m
claim on multisets of keys has the scope s of "arity m, total key weight <= s"
(``symcoalg.multisets_by_weight``).  ``scan`` is how a checker decides a scope;
the few other places that catch an ``Overflow`` (a sample or a Maurer-Cartan
point beyond the bounds, the t-adic series' exactness test, the cache of
Taylor data) are listed in ``tests/test_imports.py::OVERFLOW_CATCHERS``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf
from typing import Any, Callable, Iterable

from .core import Overflow

PASS = "PASS"
FAIL = "FAIL"
UNDETERMINED = "UNDETERMINED"


def scan(levels: Iterable, check: Callable) -> tuple[Any, Any]:
    """Evaluate ``check(case)`` level by level; return ``(scope, witness)``.

    ``levels`` yields ``(level, cases)``, integer levels in any order and
    possibly repeated; ``check`` returns a witness where a case fails, else
    None.  The scope is the least level with a witness (and its first one),
    unless a case of a lower level raises Overflow: then that least level minus
    one, or the least level minus one if no case below it was evaluated.
    Otherwise the greatest level (None without levels).  Cases above the bound
    set so far are skipped."""
    seen, low, found, bound, raised = set(), inf, None, inf, inf
    for level, cases in levels:
        seen.add(level)
        for case in cases if level <= bound else ():
            try:
                witness = check(case)
            except Overflow:
                bound = raised = level
                continue
            low = min(low, level)
            if witness is not None:
                found, bound = (level, witness), level - 1
                break
    if found is not None and found[0] <= raised:
        return found
    return (max(seen, default=None) if raised == inf
            else (raised if low < raised else min(seen)) - 1), None


def evaluable_scope(A, evaluate: Callable, top: int | None = None) -> int:
    """Weight-closed evaluable scope on the keys of an algebra: the largest
    k <= top (default: its ``weight_bound``) such that ``evaluate(key)`` raises
    no Overflow on any key of ``A.weight`` <= k; -1 if it fails on the unit.

    An operator that leaves the guard only on some keys of a weight is scoped
    below that whole weight.  The images land in the LinOp caches, so a claim
    evaluated on the scope afterwards recomputes nothing.
    """
    top = A.weight_bound if top is None else top
    levels = (A.keys_by_weight() + ((),) * top)[:top + 1]  # no key above the bound

    def holds(key):
        evaluate(key)

    return scan(enumerate(levels), holds)[0]


def keys_upto(A, k: int) -> list:
    """The keys of the algebra ``A`` of weight <= k, by weight, in key order."""
    return [key for keys in A.keys_by_weight()[:k + 1] for key in keys]


def witness_verdict(bad) -> tuple[bool, str]:
    """(ok, detail) of a claim whose first witness is ``bad`` (None: it holds)."""
    return bad is None, "" if bad is None else f"witness {bad}"


@dataclass
class CheckItem:
    name: str
    verdict: str
    detail: str = ""

    def line(self) -> str:
        return f"{self.verdict:12s} {self.name}" + (f"  [{self.detail}]" if self.detail else "")


@dataclass
class Report:
    title: str
    items: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool | None, detail: str = "") -> None:
        verdict = UNDETERMINED if ok is None else (PASS if ok else FAIL)
        self.items.append(CheckItem(name, verdict, detail))

    def add_beyond(self, known: int, names: Iterable[str]) -> None:
        """The named claims UNDETERMINED: each reads a series above ``known``,
        the last order it is known to."""
        for name in names:
            self.add(name, None, f"series known to order {known}")

    def claim(self, name: str, scope: int, decide: Callable, least: int = 1) -> None:
        """Add the claim ``name``, decided by ``decide() -> (ok, detail)`` on the
        levels up to ``scope``, and record the scope in the bounds.  ``least`` is
        the lowest level the claim is about (1: the reduced words); a scope below
        it leaves the claim UNDETERMINED."""
        self.bounds[f"scope: {name}"] = scope
        if scope < least:
            self.add(name, None, f"not evaluated: scope {scope}")
        else:
            self.add(name, *decide())

    def merge(self, other: "Report", prefix: str = "") -> None:
        """Append the other report's items and bounds, both under ``prefix``, so
        bounds of merged reports do not overwrite each other."""
        for item in other.items:
            self.items.append(CheckItem(prefix + item.name, item.verdict, item.detail))
        self.bounds.update({prefix + k: v for k, v in other.bounds.items()})

    @property
    def ok(self) -> bool:
        return all(i.verdict == PASS for i in self.items)

    @property
    def has_fail(self) -> bool:
        return any(i.verdict == FAIL for i in self.items)

    @property
    def has_undetermined(self) -> bool:
        return any(i.verdict == UNDETERMINED for i in self.items)

    def exit_status(self) -> int:
        if self.has_fail:
            return 1
        if self.has_undetermined:
            return 2
        return 0

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        if self.bounds:
            lines.append("bounds: " + ", ".join(f"{k}={v}" for k, v in sorted(self.bounds.items())))
        lines.extend(i.line() for i in self.items)
        summary = "all PASS" if self.ok else ("FAIL" if self.has_fail else "UNDETERMINED")
        lines.append(f"-- {summary} ({len(self.items)} checks)")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "bounds": {k: self.bounds[k] for k in sorted(self.bounds)},
            "checks": [{"name": i.name, "verdict": i.verdict, "detail": i.detail}
                       for i in self.items],
            "summary": "PASS" if self.ok else ("FAIL" if self.has_fail else "UNDETERMINED"),
        }
        return json.dumps(payload, indent=2, sort_keys=True)
