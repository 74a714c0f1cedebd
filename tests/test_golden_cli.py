"""Byte-for-byte CLI output on the bundled configs.

``golden_cli.json`` holds, for every ``configs/*.json``, the exit code, the
standard output and the written CSV of each command in ``COMMANDS``.  An
intended output change regenerates it:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from walkwait.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
# each command follows the config path; sweeps also get --out
COMMANDS = [
    ["analyze"],
    ["analyze", "--json"],
    ["optimize"],
    ["optimize", "--json"],
    ["sweep", "--var", "tw", "--from", "0", "--to", "60", "--steps", "61"],
    ["sweep", "--var", "d1", "--tw", "4", "--from", "0", "--to", "3", "--steps", "21"],
    ["sweep", "--var", "pc", "--from", "0", "--to", "1", "--steps", "21"],
    *(
        ["simulate", "--strategy", strategy, "--n", "100000"]
        for strategy in ("wait_forever", "walk_now", "wait_then_walk:5", "walk_and_wait:1,3,0.5")
    ),
]


def cases() -> list[list[str]]:
    """argv of every command on every bundled config, paths relative to the repo."""
    configs = sorted(p.relative_to(ROOT).as_posix() for p in ROOT.glob("configs/*.json"))
    return [[command[0], config, *command[1:]] for config in configs for command in COMMANDS]


def run(argv: list[str], out_dir: Path) -> dict:
    """Exit code, stdout and CSV text of one in-process CLI run."""
    argv = [argv[0], str(ROOT / argv[1]), *argv[2:]]
    csv = out_dir / "out.csv"
    if argv[0] == "sweep":
        argv += ["--out", str(csv)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "csv": csv.read_text() if argv[0] == "sweep" else None,
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {" ".join(case.pop("argv")): case for case in json.loads(GOLDEN.read_text())}


def test_every_bundled_config_is_recorded(recorded):
    assert list(recorded) == [" ".join(argv) for argv in cases()]


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_is_byte_identical(argv, recorded, tmp_path):
    assert run(argv, tmp_path) == recorded[" ".join(argv)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = [{"argv": argv, **run(argv, Path(tmp))} for argv in cases()]
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
