"""One-line mutants of ``src/walkwait``, each run against the full test suite.

    python tools/mutants.py            # run every mutant, print a table
    python tools/mutants.py 24 25      # run only mutants 24 and 25
    python tools/mutants.py --check    # only check that each mutant's line is in the code

A mutant is one deliberate one-line change, ``(file, old, new, why)``:
``old`` must occur exactly once in ``file``.  Each mutant is applied in turn
to one temporary copy of the repository, where ``pytest -x -q`` fails (the
suite killed the mutant) or passes (it survived); the copy's file is then
restored.  The run exits 1 when a mutant survives, and ``--check`` when a
mutant's ``old`` is missing, repeated or unchanged; an index that names no
mutant exits 2.  Each surviving mutant costs a full suite run, so this is no
tier-1 step; run the mutants of the lines a change touches, by index.  The
``--check`` rule is a tier-1 test (``tests/test_repo_rules.py``), which each
mutant's run deselects, as a mutant takes out its own line.  The list only
grows: a mutant whose line moves is rewritten, not dropped.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARRIVALS = "src/walkwait/arrivals.py"
CLI = "src/walkwait/cli.py"
EXPECTATION = "src/walkwait/expectation.py"
INTERMEDIATE = "src/walkwait/intermediate.py"
MCSIM = "src/walkwait/mcsim.py"
OPTIMIZER = "src/walkwait/optimizer.py"
QUADRATURE = "src/walkwait/quadrature.py"

MUTANTS = [
    (EXPECTATION,
     "e += (1.0 - p_catch) * (scenario.t_delta * F - m)",
     "e += (1.0 - p_catch) * (scenario.t_delta * F - m) * (1.0 + 1e-10)",
     "a 1e-10 relative bias in the walking-leg term of every plan price"),
    (EXPECTATION,
     "e += (1.0 - p_catch) * (scenario.t_delta * F - m)",
     "e += (1.0 - p_catch) * (scenario.t_delta * F - m) * (1.0 + 1e-7)",
     "a 1e-7 relative bias in the walking-leg term of every plan price"),
    (INTERMEDIATE,
     "rows.append((d1, e, q * q * (scenario.d - d1) * ((1.0 - p_catch) * p1 - p)))",
     "rows.append((d1, e, q * q * (scenario.d - d1) * ((1.0 - p_catch) * p1 - p) * (1.0 + 1e-7)))",
     "a 1e-7 relative bias in plan_curve_d1's slope"),
    (INTERMEDIATE,
     "saving = td * model.cdf(td) - model.partial_mean(td)",
     "saving = (td * model.cdf(td) - model.partial_mean(td)) * (1.0 + 1e-9)",
     "a 1e-9 relative bias in the vigilant walk's saving"),
    (ARRIVALS,
     "if not a_neg:",
     "if False:",
     "the scan keeps a maximum at a density jump, where E' never vanishes"),
    (OPTIMIZER,
     "sp.expected_tt < best.expected_tt - TIE_TOL * scenario.t_delta",
     "sp.expected_tt < best.expected_tt",
     "a minimum wins without the strict-improvement margin TIE_TOL t_delta"),
    (ARRIVALS,
     "SURVIVAL_FLOOR = 1e-15",
     "SURVIVAL_FLOOR = 1e-9",
     "roots of E' where the survival is below 1e-9 are dropped"),
    (ARRIVALS,
     "SURVIVAL_FLOOR = 1e-15",
     "SURVIVAL_FLOOR = 0.0",
     "roots of E' where rounding leaves a tiny survival are kept"),
    (ARRIVALS,
     "and 0.0 < c and 1.0 - F0 > SURVIVAL_FLOOR:",
     "and 0.0 < c:",
     "the table's jump minimum without its survival-floor check"),
    (ARRIVALS,
     "if abs(saving) <= TIE_TOL * scale:",
     "if abs(saving) < TIE_TOL * scale:",
     "a saving of exactly TIE_TOL scale no longer ties"),
    (ARRIVALS,
     "or left == 0.0 and rising)",
     "or left == 0.0)",
     "the table's jump rule counts a minimum where E' reaches 0 from above"
     " just below a jump"),
    (ARRIVALS,
     "if not disc > 4.0 * sys.float_info.epsilon * (sb * sb + 2.0 * abs(s) * sc):",
     "if not disc >= 0.0:",
     "the table lists a tangent root of E', where b^2 + 2 s c rounds to 0,"
     " as a maximum and a minimum"),
    (MCSIM,
     "board = tau < end",
     "board = tau <= end",
     "a zero wait boards a bus that comes at exactly its end"),
    (INTERMEDIATE,
     "if d1 == scenario.d:",
     "if False:",
     "a plan that walks to the destination is priced with a wait there"),
    (MCSIM,
     "t_wait = 0.0 if plan.d1 == scenario.d else plan.t_wait",
     "t_wait = plan.t_wait",
     "the MC boards a bus after a walk to the destination has ended the journey"),
    (MCSIM,
     "return type(model).sample.__module__ == ArrivalModel.__module__",
     "return True",
     "a model with its own sampler, which may hand out one cached array,"
     " runs its chunks on helper threads"),
    (ARRIVALS,
     "(left < 0.0 or left == 0.0 and rising)",
     "left < 0.0",
     "the table's jump rule misses a minimum where E' reaches 0 from below"
     " just below a jump"),
    (INTERMEDIATE,
     "if plan.d1 == scenario.d:",
     "if False:",
     "plan_gradient_tw reads E' at t1 + t_wait after a walk to the destination,"
     " where E has no wait to vary"),
    (ARRIVALS,
     "if not disc > 4.0 * sys.float_info.epsilon * (sb * sb + 2.0 * abs(s) * sc):",
     "if not disc > 0.0:",
     "the table lists a tangent root of E', where b^2 + 2 s c rounds to a few"
     " ulps above 0, as a maximum and a minimum"),
    (MCSIM,
     "for scale in (1.0, 2.0**-600):",
     "for scale in (1.0,):",
     "an estimate whose squared deviations overflow is not run again scaled"),
    (ARRIVALS,
     "sb, sc = y0 + t_delta * abs(s), abs(1.0 - F0) + t_delta * y0",
     "sb, sc = abs(b), abs(c)",
     "the tangent bound misses the rounding of b = y0 + t_delta s where it"
     " cancels, and keeps a spurious maximum and minimum"),
    (MCSIM,
     "if m2 < math.inf or not math.isfinite(mean):",
     "if m2 < math.inf:",
     "an estimate whose mean overflows runs every chunk a second time, scaled,"
     " only to be rejected"),
    (CLI,
     "fh.truncate()",
     "pass",
     "a sweep rewritten shorter keeps the tail of the file it overwrites"),
    (CLI,
     "if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):",
     "if True:",
     "a sweep to a non-regular target such as /dev/null is cut to length,"
     " which raises EINVAL"),
    (CLI,
     'if text.startswith("-") or isinstance(kind, tuple) and text not in kind:',
     "if isinstance(kind, tuple) and text not in kind:",
     "the plain parse takes a value that starts with '-', such as -inf or -h,"
     " which argparse reads as an option"),
    (CLI,
     "if any(required and values[dest] is None",
     "if any(False and values[dest] is None",
     "the plain parse accepts a call that leaves out a required option"),
    (CLI,
     'if text.startswith("-") or isinstance(kind, tuple) and text not in kind:',
     'if text.startswith("-"):',
     "the plain parse accepts a value outside an option's choices"),
    (QUADRATURE,
     "a, fa, m, fm, whole = m, fm, rm, frm, right",
     "stack[-1] = (m, fm, rm, frm, b, fb, right); m, fm, b, fb, whole = lm, flm, m, fm, left",
     "a split panel goes on with its left half and stacks its right, which"
     " reads the integrand and adds the panels in another order"),
    (QUADRATURE,
     "total += left + right + delta / 15.0",
     "total += left + right",
     "an accepted panel drops its Richardson term delta / 15"),
    (ARRIVALS,
     "object.__setattr__(self, \"_m1_sums\", state)",
     "pass",
     "the M1 state is built on every call below the support end until a"
     " whole piece is integrated, and forever on a model with no interior cut"),
    (MCSIM,
     "if math.isfinite(mean) and m2 <= total_n * (64.0 * math.ulp(mean)) ** 2:",
     "if False:",
     "a sample of equal journeys reports its merged mean, an ulp or so off,"
     " and rounding noise for its stderr"),
    (CLI,
     "z = 0.0 if result.mean == analytic else None",
     "z = 0.0",
     "simulate prints z 0 for a sample with no spread whose mean is not the price"),
    (MCSIM,
     "if low == high:",
     "if True:",
     "a sample whose spread is rounding-sized is taken for one with no spread"),
]


def check() -> list[str]:
    """The problems of the lists: an ``old`` that is missing, repeated or
    unchanged by its ``new``."""
    problems = []
    for i, (file, old, new, _) in enumerate(MUTANTS):
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"mutant {i}: {old!r} occurs {count} times in {file}")
        if new == old:
            problems.append(f"mutant {i}: new is old")
    return problems


def run(copy: Path, file: str, old: str, new: str) -> tuple[bool, str]:
    """(killed, first failing test or "") of one mutant on the copy."""
    path = copy / file
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(old, new), encoding="utf-8")
    # no bytecode: a mutant of the same size and second would reuse a stale one
    path_list = filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(path_list))
    # the rule that each mutant's line is in the code fails on every mutant
    rule = "tests/test_repo_rules.py::test_every_mutant_line_is_in_the_code"
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--deselect", rule],
                              cwd=copy, env=env, capture_output=True, text=True, check=False)
    finally:
        path.write_text(text, encoding="utf-8")
    # a summary line is "FAILED <test id> - <message>", and a test id may hold spaces
    failed = next((line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode != 0, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that each mutant's line occurs once")
    parser.add_argument("index", nargs="*", type=int,
                        help="run only the mutants of these indices (default: every mutant)")
    args = parser.parse_args(argv)
    unknown = [i for i in args.index if not 0 <= i < len(MUTANTS)]
    if unknown:
        parser.error(f"no mutant {unknown[0]}: the indices run from 0 to {len(MUTANTS) - 1}")
    problems = check()
    if problems or args.check:
        for problem in problems:
            print(problem, file=sys.stderr)
        if not problems:
            print(f"{len(MUTANTS)} mutants: each line occurs once")
        return 1 if problems else 0

    survived = 0
    print("| # | file | old -> new | result | first failing test |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_out", "__pycache__", "*.egg-info", ".pytest_cache", "BENCH_*.json"))
        for i in args.index or range(len(MUTANTS)):
            file, old, new, _ = MUTANTS[i]
            killed, failed = run(copy, file, old, new)
            survived += not killed
            print(f"| {i} | {Path(file).name} | `{old}` -> `{new}` | "
                  f"{'killed' if killed else 'SURVIVED'} | {failed} |", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
