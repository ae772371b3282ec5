import json

from tests.line_coverage import ALLOWLIST, check, executable_lines


def test_check_flags_unlisted_lines_and_entries_that_cover_none():
    missed = {"a.py": {3: "x = 1", 7: "return None", 9: "return None"}}
    allowed = [
        {"module": "a.py", "line": "return None", "reason": "r"},
        {"module": "a.py", "line": "y = 2", "reason": "r"},
    ]
    assert check(missed, allowed) == [
        "a.py:3 never runs: x = 1",
        "a.py: allow-list entry now runs, remove it: y = 2",
    ]


def test_every_allowlist_entry_names_an_executable_line_and_a_reason():
    lines = executable_lines()
    entries = json.loads(ALLOWLIST.read_text(encoding="utf-8"))
    assert len({(e["module"], e["line"]) for e in entries}) == len(entries)
    for entry in entries:
        assert entry["reason"], entry
        assert entry["line"] in lines[entry["module"]].values(), entry
