"""Regenerate sim_reference.json, the stored simulator outputs that the
simulate workload checks every task against.

Run from the repository root, on a commit whose simulator is trusted:

    PYTHONPATH=src python3 benchmarks/make_sim_reference.py

Entries cover POOL_SIZE simulator seeds for each pricing mode, one demo
configuration each (``demo_sim_config``, ``demo_coeffs``, ``demo_regions``).
"""

import json
import os
import sys

import worker

POOL_SIZE = 128
REPLICATIONS = 1


def main() -> int:
    from uip import freight

    entries = {}
    for pricing_mode in ("custom", "linear"):
        for sim_seed in range(POOL_SIZE):
            cfg = freight.demo_sim_config(pricing_mode, seed=sim_seed,
                                          replications=REPLICATIONS)
            metrics = worker.simulate_task((cfg, freight.demo_coeffs(),
                                            freight.demo_regions()))
            entries[worker.sim_reference_key(cfg)] = {
                k: v.tolist() for k, v in metrics.samples.items()
            }
    ref = {"pool_size": POOL_SIZE, "replications": REPLICATIONS, "entries": entries}
    with open(worker.SIM_REFERENCE, "w") as fh:
        json.dump(ref, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {os.path.relpath(worker.SIM_REFERENCE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
