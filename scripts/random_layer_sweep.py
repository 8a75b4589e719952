"""Sweep the random layered-graph bounds over a small (n, p, tau) grid.

For each cell, samples `seeds` multi-layer graphs whose flattened graph is
G(n, p), and reports the summed-degree minimum, the greedy domination
number, the probabilistic domination bound, and the exhaustive existential
closure lower bound.  Writes one CSV to stdout.

Run:  python scripts/random_layer_sweep.py [seeds]
"""

import sys

from mlcr.bounds import domination_bound, domset_greedy, mec_lower_bound
from mlcr.core import ml_min_degree
from mlcr.generators import gen_random_layers


def main():
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print("n,p,tau,seed,delta,gamma_greedy,bound,mec_lb")
    for n in (32, 64, 128):
        for p in (0.2, 0.4):
            for tau in (1, 2, 3):
                for seed in range(seeds):
                    g, _ = gen_random_layers(n, p, tau, seed)
                    delta = ml_min_degree(g)
                    gamma = len(domset_greedy(g))
                    bound = domination_bound(n, tau, delta) if delta >= 1 else float("nan")
                    print(f"{n},{p},{tau},{seed},{delta},{gamma},{bound:.2f},{mec_lower_bound(g, 3)}")


if __name__ == "__main__":
    main()
