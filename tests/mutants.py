"""Mutation check: each listed one-line fault must fail the tests named for it.

Run from the repository root:

    python tests/mutants.py

Each mutant is (file under ``src/``, old line, new line, test ids).  The old
line must occur exactly once in its file, as a whole line.  The mutant is
applied to a temporary copy of ``src/``, and only its named tests run, against
that copy.  A mutant survives when those tests pass; the script exits non-zero
if any mutant survives or cannot be applied.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    # the empty-grid check trusts the gathered candidate values alone
    ("etslam/slam.py",
     "    if not looked.max() > 0.0 and not grid.has_occupied():",
     "    if not looked.max() > 0.0:",
     ["tests/test_slam.py::test_match_reads_whole_grid_only_without_positive_candidate"
      "[positive_out_of_reach]"]),
    # decremented cells are not clamped at -LOG_ODDS_CLAMP
    ("etslam/slam.py",
     "    flat[free_idx] = np.maximum(flat[free_idx], -LOG_ODDS_CLAMP)",
     "    pass",
     ["tests/test_slam.py::test_update_grid_clamp_matches_reference_on_filled_grid"]),
    # endpoint cells are not clamped at +LOG_ODDS_CLAMP
    ("etslam/slam.py",
     "    flat[end_idx] = np.minimum(flat[end_idx], LOG_ODDS_CLAMP)",
     "    pass",
     ["tests/test_slam.py::test_update_grid_clamp_matches_reference_on_filled_grid"]),
    # dead reckoning turns the odometry step by the previous true heading
    ("etslam/slam.py",
     "        est_pos = estimate.position + rotation(estimate.heading) @ (delta_local + noise_t)",
     "        est_pos = estimate.position + rotation(truth.heading) @ (delta_local + noise_t)",
     ["tests/test_slam.py::test_dead_reckoning_matches_hand_composed_chain"]),
    # trial k of seed s shares its stream with trial k - 1 of seed s + 1
    ("etslam/harness.py",
     "    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, trial_index]))",
     "    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed + trial_index))",
     ["tests/test_harness.py::test_trial_seeded_from_seed_and_index"]),
)


def apply(src: Path, path: str, old: str, new: str) -> None:
    """Replace ``old`` by ``new`` in ``src / path``; ValueError unless ``old`` is
    exactly one whole line of that file."""
    target = src / path
    lines = target.read_text().split("\n")
    hits = [k for k, line in enumerate(lines) if line == old]
    if len(hits) != 1:
        raise ValueError(f"{path}: the old line occurs {len(hits)} times, not once: {old!r}")
    lines[hits[0]] = new
    target.write_text("\n".join(lines))


def run(path: str, old: str, new: str, tests: list[str]) -> tuple[bool, str]:
    """Whether the mutant is killed (applied to a copy of ``src/``, its tests fail),
    and the last line pytest printed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(src, path, old, new)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        found = subprocess.run([sys.executable, "-c", "import etslam; print(etslam.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if not Path(found.stdout.strip()).is_relative_to(src):
            raise RuntimeError(f"the tests would import etslam from {found.stdout.strip()}")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], env=env, cwd=ROOT, capture_output=True, text=True)
    # 1: tests failed; any other non-zero code (no tests collected, an error) is no kill
    return proc.returncode == 1, (proc.stdout.strip().splitlines() or [""])[-1]


def main() -> int:
    survived = 0
    for path, old, new, tests in MUTANTS:
        try:
            killed, summary = run(path, old, new, tests)
        except ValueError as exc:
            print(f"NOT APPLIED {exc}")
            survived += 1
            continue
        print(f"{'killed  ' if killed else 'SURVIVED'} {path}: {old.strip()!r} -> {new.strip()!r}"
              f" ({summary})")
        survived += not killed
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
