"""Mutation check: each listed one-line fault must fail the tests named for it.

Run from the repository root:

    python tests/mutants.py

Each mutant is (file under ``src/``, old line, new line, test ids).  The old
line must occur exactly once in its file, as a whole line.  ``src/`` is copied
once per worker; each mutant is applied to a free copy, only its named tests
run against it, and the file is restored.  ``WORKERS`` mutants run at a time,
and the results print in the table's order.  A mutant survives when those
tests pass; the script exits non-zero if any mutant survives or cannot be
applied.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# mutants checked at once, each in its own copy of src/ and its own pytest process
WORKERS = 2

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
    # a point one cell past the grid's x edge gets index nx * ny + cy, not -1
    ("etslam/slam.py",
     "        ok = (cx.view(np.uintp) < nx) & (cy.view(np.uintp) < ny)",
     "        ok = (cx.view(np.uintp) <= nx) & (cy.view(np.uintp) < ny)",
     ["tests/test_slam.py::test_flat_index_hand_computed_cells"]),
    # each ragged range starts one past its lower bound
    ("etslam/scene.py",
     "    j = np.arange(len(i)) + np.repeat(lo - (np.cumsum(size) - size), size)",
     "    j = np.arange(len(i)) + np.repeat(lo - (np.cumsum(size) - size), size) + 1",
     ["tests/test_scene.py::test_ragged_ranges_match_double_loop"]),
    # the broad phase's arcs lose their pad, so a ray aimed at an edge's end can miss it
    ("etslam/scene.py",
     "ARC_PAD = 1e-9",
     "ARC_PAD = 0.0",
     ["tests/test_scene.py::test_broad_phase_rays_aimed_at_endpoints_and_corners"]),
    # a run of range peaks continues across the end of a row into the next
    ("etslam/ofdm.py",
     "    joined[1:] = (np.diff(cand) == 1) & (cand[1:] % n != 0)",
     "    joined[1:] = np.diff(cand) == 1",
     ["tests/test_ofdm.py::test_detect_peaks_mask_matches_greedy_reference"]),
    # the complex noise's standard deviation is sqrt(2) too large
    ("etslam/ofdm.py",
     "    z *= math.sqrt(sigma2 / 2.0)",
     "    z *= math.sqrt(sigma2)",
     ["tests/test_ofdm.py::test_snr_calibration"]),
    # the steering phase turns the other way, mirroring each bearing
    ("etslam/ofdm.py",
     "    steer = np.exp(1j * np.outer(np.arange(cfg.n_tx), omega))",
     "    steer = np.exp(-1j * np.outer(np.arange(cfg.n_tx), omega))",
     ["tests/test_ofdm.py::test_sense_places_detection_at_bin_centre"]),
    # hit protection leaves cells at exactly 0.0 undecremented
    ("etslam/slam.py",
     "    free_idx = free_idx[flat[free_idx] <= 0.0]",
     "    free_idx = free_idx[flat[free_idx] < 0.0]",
     ["tests/test_slam.py::test_update_grid_matches_2d_unique_reference"]),
    # score ties go to the first candidate in (dtheta, dx, dy) order, not the smallest
    # correction
    ("etslam/slam.py",
     "    best = order[np.argmax(scores.ravel()[order])]",
     "    best = np.argmax(scores)",
     ["tests/test_slam.py::test_match_scan_matches_per_rotation_reference"]),
    # a ray whose first sample shares the previous ray's last cell joins that ray's run
    ("etslam/slam.py",
     "    run_start[first] = True",
     "    pass",
     ["tests/test_slam.py::test_update_grid_rays_sharing_a_cell_each_decrement_it"]),
    # snapshot times are deduplicated by value, so -0.0 is written as 0
    ("etslam/harness.py",
     "        bits, which = np.unique(np.ascontiguousarray(rec.map_times, dtype=float).view(np.int64),",
     "        bits, which = np.unique(np.ascontiguousarray(rec.map_times, dtype=float),",
     ["tests/test_harness.py::test_emit_csv_matches_savetxt[500]"]),
    # a lone target's "no other target" entry is 0, not c^p
    ("etslam/metrics.py",
     "    d[first, cols] = cp",
     "    d[first, cols] = 0.0",
     ["tests/test_metrics.py::test_cost_matrix_single_perfect"]),
    # the cell key's row width leaves no room for column offsets up to 4, so keys wrap
    ("etslam/clustering.py",
     "    width = int(ij[:, 1].max()) + 9",
     "    width = int(ij[:, 1].max()) + 1",
     ["tests/test_clustering.py::test_border_point_joins_lowest_cluster_id"]),
    # pointer jumping stops after one jump, short of each node's root
    ("etslam/clustering.py",
     "        while not np.array_equal(jumped := root[root], root):",
     "        if not np.array_equal(jumped := root[root], root):",
     ["tests/test_clustering.py::test_lattice_exact_boundary_matches_reference[1-0.5]"]),
    # peaks are ranked over the whole image, not within their row
    ("etslam/ofdm.py",
     "    rank = np.arange(kept.size) - ranked.searchsorted(ranked)",
     "    rank = np.arange(kept.size)",
     ["tests/test_ofdm.py::test_detect_peaks_mask_matches_greedy_reference"]),
    # a run that does not end on the snapshot cadence loses its final snapshot
    ("etslam/slam.py",
     "        if k % every == 0 or k == n_steps:",
     "        if k % every == 0:",
     ["tests/test_harness.py::test_run_trial_snapshots_the_final_step_off_the_cadence"]),
    # a segment counts as blocked only by a target in its first half
    ("etslam/scene.py",
     "        blocked = np.flatnonzero(t[:, 0] < lengths)",
     "        blocked = np.flatnonzero(t[:, 0] < 0.5 * lengths)",
     ["tests/test_scene.py::test_trajectory_blocked_past_segment_midpoint_rejected"]),
    # a waypoint on a target's boundary counts as outside it
    ("etslam/scene.py",
     "            if np.any(tgt.shape.signed_distance(wp) <= 0.0):",
     "            if np.any(tgt.shape.signed_distance(wp) < 0.0):",
     ["tests/test_scene.py::test_waypoint_on_target_boundary_rejected"]),
    # a path at exactly c0/(2*delta_f), which wraps to range 0, is sensed
    ("etslam/ofdm.py",
     "    if np.any(gt.ranges >= cfg.unambiguous_range):",
     "    if np.any(gt.ranges > cfg.unambiguous_range):",
     ["tests/test_ofdm.py::test_unambiguous_window_closed_at_its_bound"]),
    # a (c, p) whose pair-cost bound 2c^p overflows a float constructs
    ("etslam/metrics.py",
     '            raise ValueError(f"metric 2*c**p must be a finite float, got c={self.c:g}, '
     'p={self.p:g}")',
     "            pass",
     ["tests/test_metrics.py::test_params_refuse_pair_cost_bound_past_float_range"]),
    # a metric value past the float range reads inf
    ("etslam/metrics.py",
     "    if not math.isfinite(bracket):",
     "    if False:",
     ["tests/test_metrics.py::test_value_past_float_range_refused[et_gospa-extra]"]),
    # no estimates divide the rows budget by zero
    ("etslam/metrics.py",
     "    rows_budget = _CELL_BUDGET // max(len(estimates), 1)",
     "    rows_budget = _CELL_BUDGET // len(estimates)",
     ["tests/test_metrics.py::test_no_estimates"]),
    # an empty target reaches the grouping, which divides its budget by zero
    ("etslam/metrics.py",
     '            raise ValueError(f"target {i} has no points")',
     "            pass",
     ["tests/test_metrics.py::test_empty_target_refused[first-et_gospa]"]),
    # alpha = 0 constructs
    ("etslam/metrics.py",
     "        if not (0.0 < self.alpha <= 2.0):",
     "        if not (0.0 <= self.alpha <= 2.0):",
     ["tests/test_metrics.py::test_params_accept_the_closed_bound_and_refuse_the_open_one[alpha]"]),
    # p = inf passes its own check and is refused only by the 2c^p bound's
    ("etslam/metrics.py",
     "        if not (1.0 <= self.p < np.inf):",
     "        if not (1.0 <= self.p <= np.inf):",
     ["tests/test_metrics.py::test_params_accept_the_closed_bound_and_refuse_the_open_one[p]"]),
    # each target's minimum reads its first point only
    ("etslam/metrics.py",
     "                d[group] = d2.min(axis=1)",
     "                d[group] = d2[:, 0]",
     ["tests/test_metrics.py::test_min_costs_group_boundary"]),
    # a group's cell budget counts targets, not points, so a size class of many
    # points is not split
    ("etslam/metrics.py",
     "            step = max(1, rows_budget // k)",
     "            step = max(1, rows_budget)",
     ["tests/test_metrics.py::test_min_costs_group_boundary"]),
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


def run(src: Path, env: dict, path: str, old: str, new: str,
        tests: list[str]) -> tuple[bool, str]:
    """Whether the mutant is killed (applied to ``src``, its tests fail), and the last
    line pytest printed; the file is restored afterwards."""
    target = src / path
    original = target.read_text()
    try:
        apply(src, path, old, new)
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], env=env, cwd=ROOT, capture_output=True, text=True)
    finally:
        target.write_text(original)
    # 1: tests failed; any other non-zero code (no tests collected, an error) is no kill
    return proc.returncode == 1, (proc.stdout.strip().splitlines() or [""])[-1]


def copy_src(dest: Path) -> tuple[Path, dict]:
    """A copy of ``src/`` at ``dest`` and the environment whose tests import etslam from
    it."""
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    # no child writes bytecode, so no version of a file loads another's .pyc: its
    # check reads only size and whole-second mtime, which a same-size line rewritten
    # within the same second keeps
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(dest), os.environ.get("PYTHONPATH")])))
    found = subprocess.run([sys.executable, "-c", "import etslam; print(etslam.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(found.stdout.strip()).is_relative_to(dest):
        raise RuntimeError(f"the tests would import etslam from {found.stdout.strip()}")
    return dest, env


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        free = queue.SimpleQueue()
        for k in range(WORKERS):
            free.put(copy_src(Path(tmp) / f"src{k}"))

        def check(mutant) -> tuple[bool, str]:
            path, old, new, tests = mutant
            src, env = free.get()
            try:
                killed, summary = run(src, env, path, old, new, tests)
            except ValueError as exc:
                return False, f"NOT APPLIED {exc}"
            finally:
                free.put((src, env))
            return killed, (f"{'killed  ' if killed else 'SURVIVED'} {path}: {old.strip()!r} -> "
                            f"{new.strip()!r} ({summary})")

        killed = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            for ok, line in pool.map(check, MUTANTS):
                print(line, flush=True)
                killed += ok
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
