#!/usr/bin/env python3
"""Run every experiment on the bundled deployment and drop CSVs in one place.

Figures are intentionally not rendered here; each CSV carries tidy columns
plus provenance (scenario hash, seed, solver), so any plotting tool works.
Exit codes are the ``attocell`` command's: 0 success, 2 bad configuration
or arguments, 3 infeasible instance, 4 solver failure.
"""

import argparse
import os
import sys
import time

from attocell import cli
from attocell.experiments import (exp_eh_allocation, exp_feasibility_vs_theta,
                                  exp_illuminance, exp_rf_power,
                                  exp_snr_eh_region, exp_subopt_gap)
from attocell.scenario import default_scenario, load_scenario


def trial_count(text):
    """``--trials``: an integer of at least 1, checked before any output is written."""
    trials = int(text)
    if trials < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 trial, got {trials}")
    return trials


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None, help="scenario YAML (default: bundled)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--trials", type=trial_count, default=100,
                    help="Monte-Carlo draws for the RF power sweep")
    return cli.run_with_exit_codes(_run_all, ap.parse_args(argv))


def _run_all(args):
    if args.config:
        sc = load_scenario(args.config, seed=args.seed)
    else:
        sc = default_scenario(seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    print(f"scenario {sc.hash} seed {sc.seed} -> {args.out_dir}/")

    runs = [
        ("snr_eh_region", lambda: exp_snr_eh_region(sc)),
        ("feasibility_vs_theta", lambda: exp_feasibility_vs_theta(sc)),
        ("eh_allocation", lambda: exp_eh_allocation(sc)),
        ("rf_power", lambda: exp_rf_power(sc, trials=args.trials)),
        ("subopt_gap", lambda: exp_subopt_gap(sc)),
        ("illuminance", lambda: exp_illuminance(sc)),
    ]
    for name, run in runs:
        t0 = time.perf_counter()
        result = run()
        path = os.path.join(args.out_dir, f"{name}.csv")
        result.to_csv(path)
        keys = ", ".join(f"{k}={v:.6g}" for k, v in sorted(result.meta.items())
                         if isinstance(v, float))
        ms = (time.perf_counter() - t0) * 1e3
        print(f"{name:24s} {result.n_rows:6d} rows  {ms:9.1f} ms  {keys}")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
