"""Record the reference answers the correctness gate compares against.

    python3 bench/record_references.py

Runs each workload at this checkout and writes references.json, with one
answer per seed class of the workload (see workloads.py). Where the seed
picks a mirror/permutation image of the bump, it runs every other image and
fails unless all agree with seed 0 within gate.REL_TOL, which is what lets
one reference cover every seed. For a sweep it records every point with its
run status, and fails if any point's run does not complete with
u, v, w >= 0. Re-record only when a change is meant to alter the answers,
and say so where the change is described.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout

import gate
from run import WORK, import_taxisim, sweep_outcomes
from workloads import WORKLOADS, symmetries


def run_answer(cli_main, workload, seed: int) -> dict:
    directory = WORK / "references" / workload.name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    config = directory / "workload.cfg"
    config.write_text(workload.config(seed), encoding="utf-8")
    stdout = io.StringIO()
    with redirect_stdout(stdout), sweep_outcomes() as outcomes:
        code = cli_main([workload.command, str(config)])
    if code != 0:
        sys.exit(f"{workload.name} seed {seed}: exit code {code}")
    if workload.command == "sweep":
        rows = gate.parse_rows((directory / "out" / "sweep.csv").read_text(encoding="utf-8"))
        points = [{k: row[k] for k in ("theta", "classification", "max_sup_u")} for row in rows]
        if len(outcomes) != len(points):
            sys.exit(f"{workload.name} seed {seed}: {len(outcomes)} runs for {len(points)} points")
        for point, (_, outcome) in zip(points, outcomes):  # 1 worker: plan order
            problems = gate.check_outcome(outcome)
            if problems:
                sys.exit(f"{workload.name} seed {seed} theta {point['theta']!r}: {problems}")
            point["status"] = outcome.status
        return points
    printed = gate.parse_run_stdout(stdout.getvalue())
    rows = gate.parse_rows((directory / "out" / "timeseries.csv").read_text(encoding="utf-8"))
    problems = gate.check_series(rows, workload.domain_measure)
    if problems:
        sys.exit(f"{workload.name} seed {seed}: {problems}")
    return {
        "verdict": printed["verdict"],
        "max_sup_u": float(printed["max sup u"].split()[0]),
        "final_mass_u": rows[-1]["mass_u"],
        "final_sup_u": rows[-1]["sup_u"],
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    os.environ["TAXISIM_WORKERS"] = "1"
    cli_main = import_taxisim().cli.main
    references = {}
    for name, workload in WORKLOADS.items():
        references[name] = {str(s): run_answer(cli_main, workload, s) for s in range(workload.seed_classes)}
        if workload.bump_center is None:
            continue
        ref = references[name]["0"]
        for seed in range(1, len(symmetries(workload.dim))):
            answer = run_answer(cli_main, workload, seed)
            worst = max(abs(answer[k] / ref[k] - 1.0) for k in ref if k != "verdict")
            print(f"{name} image {seed}: verdict {answer['verdict']}, max rel diff {worst:.3e}")
            if answer["verdict"] != ref["verdict"] or worst > gate.REL_TOL:
                sys.exit(f"{name} image {seed} disagrees with seed 0")
    gate.REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {gate.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
