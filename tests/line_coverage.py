"""Line coverage of src/dqeval from the standard library, as a pytest plugin.

    PYTHONPATH=src python -m pytest -q -p tests.line_coverage --hypothesis-seed=0

A line is executable when a code object compiled from a src/dqeval module
maps an instruction to it (co_lines). Every executable line must run, or
be listed in tests/data/coverage_allowlist.json with a reason. Entries are
keyed by module and the line's stripped source text, and one entry covers
every unexecuted line of its module that reads so. The session fails on
an unexecuted line that no entry covers, and on an entry that covers no
unexecuted line, so the list can only shrink. Code that runs in a
subprocess is not counted. A fixed hypothesis seed keeps the lines that
only drawn examples reach the same from run to run.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dqeval"
ALLOWLIST = Path(__file__).resolve().parent / "data" / "coverage_allowlist.json"


def _lines(code: CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # None, or 0 for a module's start
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _lines(const)
    return lines


def executable_lines() -> dict[str, dict[int, str]]:
    """Per module file name, its executable lines and their stripped text."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        out[path.name] = {n: text[n - 1].strip() for n in sorted(_lines(compile(source, str(path), "exec")))}
    return out


def check(missed: dict[str, dict[int, str]], allowed: list[dict]) -> list[str]:
    """A message per unexecuted line that no entry covers, and per entry
    that covers none."""
    keys = {(entry["module"], entry["line"]) for entry in allowed}
    problems = [
        f"{module}:{n} never runs: {line}"
        for module, lines in missed.items()
        for n, line in lines.items()
        if (module, line) not in keys
    ]
    present = {(module, line) for module, lines in missed.items() for line in lines.values()}
    problems += [f"{m}: allow-list entry now runs, remove it: {t}" for m, t in sorted(keys - present)]
    return problems


class LineCoverage:
    """Records each (file, line) of src/dqeval that runs in this process."""

    def __init__(self) -> None:
        self.hits: set[tuple[str, int]] = set()
        self.ours: dict[str, bool] = {}
        self.report: list[str] = []

    def _line(self, frame, event, arg):
        self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.ours:
            self.ours[name] = Path(name).resolve().parent == SRC
        return self._line(frame, event, arg) if self.ours[name] else None

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        ran = {(Path(name).resolve().name, n) for name, n in self.hits}
        lines = executable_lines()
        missed = {m: {n: t for n, t in ls.items() if (m, n) not in ran} for m, ls in lines.items()}
        total = sum(map(len, lines.values()))
        self.report.append(f"line coverage: {total - sum(map(len, missed.values()))} of {total} lines ran")
        self.report += check(missed, json.loads(ALLOWLIST.read_text(encoding="utf-8")))
        if len(self.report) > 1 and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        for line in self.report:
            terminalreporter.write_line(line)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    """Start before tests/conftest.py imports dqeval, so imports are counted."""
    collector = LineCoverage()
    early_config.pluginmanager.register(collector, "line-coverage")
    collector.start()
