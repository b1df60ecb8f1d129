#!/usr/bin/env python3
"""Fail when a lib/ module binds or installs process-global mutable state.

A top-level binding of a ref, Hashtbl.create, Array.make, Atomic.make,
Queue.create or Buffer.create in lib/**/*.ml is one value that every
simulation in the process shares: a second world, a test run beside
another, or an exception between a set and its reset leaks through it.
The library keeps its state in the values a run creates instead.

The one allowed binding is Obs.Flight_recorder.current, the recorder
that a process installs and removes through Flight_recorder's API.  Only
the process edge (the CLI, perfbench, tests) may do that: a call to
Flight_recorder.install or uninstall in lib/ fails too, so no library
run swaps the global out from under its caller.

Run from the repository root:  python3 test/lint_globals.py
"""

import pathlib
import re
import sys

ALLOWED = {("lib/obs/flight_recorder.ml", "current")}

# A top-level value binding: no parameters, an optional type annotation.
BINDING = re.compile(
    r"^(?:let|and)(?:\[@[^\]]*\])?\s+\(?\s*([a-z_][A-Za-z0-9_']*)\s*(?::[^=]*)?\)?\s*=\s*(.*)$"
)
INSTALL = re.compile(r"\bFlight_recorder\.(install|uninstall)\b")
MUTABLE = re.compile(
    r"^\(?\s*(ref|Hashtbl\.create|Array\.make|Atomic\.make|Queue\.create|Buffer\.create)\b"
)


def bindings(path):
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        m = BINDING.match(line)
        if not m:
            continue
        name, rhs = m.group(1), m.group(2).strip()
        j = i + 1
        while not rhs and j < len(lines):  # the expression starts on a later line
            rhs = lines[j].strip()
            j += 1
        k = MUTABLE.match(rhs)
        if k:
            yield i + 1, name, k.group(1)


def installs(path):
    for i, line in enumerate(path.read_text().splitlines()):
        m = INSTALL.search(line)
        if m:
            yield i + 1, m.group(1)


def main():
    flagged = allowed = 0
    for path in sorted(pathlib.Path("lib").rglob("*.ml")):
        for lineno, what in installs(path):
            flagged += 1
            print(f"INSTALL  {path}:{lineno}: Flight_recorder.{what}")
        for lineno, name, what in bindings(path):
            where = f"{path}:{lineno}: {name} = {what}"
            if (path.as_posix(), name) in ALLOWED:
                allowed += 1
                print(f"allowed  {where}")
            else:
                flagged += 1
                print(f"GLOBAL   {where}")
    if flagged:
        print(f"{flagged} process-global binding(s) or recorder install(s) in lib/; "
              "keep the state in a value a run creates, install the recorder at the process edge")
        return 1
    print(f"no process-global state in lib/ ({allowed} allowed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
