#!/usr/bin/env python3
"""KD-tree neighbor search vs the all-pairs scan, and what index order
costs a search.

Builds the same ball graph both ways over growing sphere samples and
times them.  The KD-tree visits only the nodes whose boxes reach within
r of a point, so its cost tracks the output size (n times mean degree)
while the scan pays n^2 regardless.  Edge sets are compared exactly;
the speedup column is the scan time over the tree time.

Then one unbounded search runs on the 1e5-point graph twice: as the
sample comes (in Z-order, so neighbours have nearby indices) and with
its nodes relabelled by a seeded shuffle.  Both are the compiled
csgraph call that ``shortest_distances`` makes; the rows must agree bit
for bit once the shuffle is undone, and only the memory order differs.
"""

import time

import numpy as np
from scipy.sparse.csgraph import dijkstra

from geoknot import build_graph, sample_surface, sphere


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def edge_key(g):
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    mask = src < g.indices
    return (src[mask].tobytes(), g.indices[mask].tobytes(),
            g.weights[mask].tobytes())


def median_gap(csr):
    """Median |i - j| over the stored entries (i, j) of a CSR matrix."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return float(np.median(np.abs(rows - csr.indices)))


def main():
    spec = sphere(1.0)
    r = 0.25
    print(f"ball graph on sphere samples, r = {r}")
    print(f"{'n':>6} {'edges':>8} {'tree s':>8} {'scan s':>8} {'speedup':>8}")
    for n in (250, 500, 1000, 2000):
        sample = sample_surface(spec, "uniform-random", n, seed=7)
        fast, t_fast = timed(
            lambda: build_graph(sample, kind="ball", r=r, method="index")
        )
        slow, t_slow = timed(
            lambda: build_graph(sample, kind="ball", r=r, method="brute")
        )
        assert edge_key(fast) == edge_key(slow)
        print(f"{n:>6} {fast.edge_count:>8} {t_fast:>8.4f} {t_slow:>8.4f} "
              f"{t_slow / t_fast:>8.1f}x")
    big = sample_surface(spec, "uniform-random", 100000, seed=7)
    g, t = timed(lambda: build_graph(big, kind="ball", r=0.05))
    print(f"{100000:>6} {g.edge_count:>8} {t:>8.2f} {'(scan skipped)':>17}")
    print()
    print("identical edge sets at every size.  The tree's cost tracks the")
    print("output size, so its lead over the n^2 scan widens with n.")
    print()
    # Node k of `moved` is node shuffle[k] of g.
    shuffle = np.random.default_rng(7).permutation(g.n)
    csr = g.to_csr()
    moved = csr[shuffle][:, shuffle]
    row, t_z = timed(lambda: dijkstra(csr, indices=0))
    moved_row, t_moved = timed(lambda: dijkstra(moved, indices=int(np.argmin(shuffle))))
    assert moved_row.tobytes() == row[shuffle].tobytes()
    print("one unbounded search from one source, 1e5 points")
    print(f"{'order':>9} {'median |i-j|':>13} {'search s':>9}")
    print(f"{'Z-order':>9} {median_gap(csr):>13.0f} {t_z:>9.3f}")
    print(f"{'shuffled':>9} {median_gap(moved):>13.0f} {t_moved:>9.3f}")
    print("identical distances; neighbours at nearby indices are read from")
    print("nearby memory, which is all the Z-order changes.")


if __name__ == "__main__":
    main()
