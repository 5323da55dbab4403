"""Numerical recovery of the minimizers by multistart descent.

For each admissible quotient topology the search takes one shift
assignment per orbit under lattice basis changes and skeleton
automorphisms (assignments of one orbit share a landscape), descends the
scale-invariant objective once from one start of each (the problem is
convex for a fixed assignment), its standard realization or a random draw
where that fails a start check, and lands on the known sharp value.  Every case below has circuit rank n, so its one
orbit's representative is built on the spanning tree, nothing enumerated.
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

cfg = OptimizeConfig(seed=1)
for tag, dim, target in CASES:
    t0 = time.time()
    res = minimize_topology(tag, dim, cfg)
    dt = time.time() - t0
    rep = verify(res.network)
    print(f"{tag:5s} n={dim}: best {res.value:.9f} vs target {target:.9f} "
          f"(rel {abs(res.value - target) / target:.1e})")
    print(f"      {len(res.traces)} orbits, one descent each, in {dt:.1f}s; best: "
          f"orbit {res.assignment_index}, {res.termination}")
    print(f"      valid = {validate(res.network).ok}; bound slack = {rep.slack:+.2e}; "
          f"certificate = "
          f"{rep.equality_certificate.passed if rep.equality_certificate else None}")
