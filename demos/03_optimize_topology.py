"""Numerical recovery of the minimizers by multistart descent.

For each admissible quotient topology the search enumerates every valid
shift assignment, groups them into orbits under lattice basis changes
and skeleton automorphisms (assignments of one orbit share a landscape),
descends the scale-invariant objective from many random starts of one
representative per orbit, and lands on the known sharp value.
"""

import math
import time

from perinet import OptimizeConfig, minimize_topology, validate, verify

CASES = [
    ("D4", 3, 12 * math.sqrt(3)),    # diamond
    ("D1,2", 3, 27.0),               # split-edge family
    ("B3", 3, 27.0),                 # primitive cubic
    ("D3", 2, 2 * math.sqrt(3)),     # honeycomb
]

cfg = OptimizeConfig(seed=1, restarts=50)
for tag, dim, target in CASES:
    t0 = time.time()
    res = minimize_topology(tag, dim, cfg)
    dt = time.time() - t0
    rep = verify(res.network)
    n_orbits = len(set(res.traces.assignment_index.tolist()))
    print(f"{tag:5s} n={dim}: best {res.value:.9f} vs target {target:.9f} "
          f"(rel {abs(res.value - target) / target:.1e})")
    print(f"      {n_orbits} orbits x {cfg.restarts} restarts "
          f"= {len(res.traces)} runs in {dt:.1f}s; best run: "
          f"assignment {res.assignment_index}, restart {res.restart_index}, "
          f"{res.termination}")
    print(f"      valid = {validate(res.network).ok}; bound slack = {rep.slack:+.2e}; "
          f"certificate = "
          f"{rep.equality_certificate.passed if rep.equality_certificate else None}")
