"""Rules of the repository itself: how the package stores state, what its
public names are, and that every listed mutant still names a line of it."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import walkwait

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_state_is_stored_through_object_setattr():
    # a __dict__ write or a cached_property builds the instance's dict,
    # which slows every later attribute lookup on it
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((SRC / "walkwait").glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"__dict__\[|__dict__\.update|cached_property", line)
    ]
    assert found == []


def test_star_import_is_warning_free():
    # in a fresh interpreter: a name in __all__ that the package does not
    # define makes the star import raise, and a warning is an error
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", "from walkwait import *"],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_readme_names_every_public_name():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in walkwait.__all__ if not re.search(rf"\b{name}\b", text)] == []


def test_every_mutant_line_is_in_the_code():
    # tools/mutants.py names each one-line mutant by its exact text: a
    # mutated line that moves or changes fails here until the list follows it
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.check() == []
