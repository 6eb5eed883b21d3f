"""Time one fresh process's set-up for a workload configuration.

    python3 setup_probe.py <src dir> <config file>

Measures, from the first statement of this script, importing taxisim,
parsing the configuration and building the initial data: the scenario and
the initial state for `run` configurations, the SweepPlan for `sweep` ones.
Prints the seconds as the last line.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from pathlib import Path  # noqa: E402

import taxisim  # noqa: E402

path = Path(sys.argv[2])
cfg = taxisim.parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)
if cfg.sweep is None:
    taxisim.initial_state(cfg.scenario.build(cfg.grid))
else:
    taxisim.SweepPlan(
        mode=cfg.sweep.mode,
        fixed_value=cfg.sweep.fixed_value,
        theta_values=cfg.sweep.theta_values,
        base_model=cfg.model,
        base_solver=cfg.solver,
        scenario=cfg.scenario,
        grid=cfg.grid,
        repetitions=cfg.sweep.repetitions,
    )
print(repr(time.perf_counter() - start))
