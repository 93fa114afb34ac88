"""Walk censuses on small graphs: closed NBWs, circuits, and circles.

Builds a few named graphs, runs the exact census, and shows the combinatorial
identities tying the three counts together on regular graphs.
"""

from nbspectra.multigraph import (brute_walk_counts, build_from_edge_list,
                                  complete_graph, cycle_graph, girth,
                                  petersen_graph, walk_census)

for name, g in [("K4", complete_graph(4)), ("C4", cycle_graph(4)),
                ("Petersen", petersen_graph())]:
    census = walk_census(g, 8)
    print(f"== {name}: girth {girth(g)}")
    print("r,f,c,z")
    for r in range(9):
        print(f"{r},{census.f[r]},{census.c[r]},{census.z[r]}")
    # a closed NBW is a circuit with a tail at its start, checked on the
    # brute-force counts, which the census does not derive from each other
    f, c, q = *brute_walk_counts(g, 8), census.q
    ok = all(f[r] == c[r] + (q - 1) * sum(q ** (i - 1) * c[r - 2 * i]
                                          for i in range(1, (r + 1) // 2))
             and census.identity_circle_bounds(r) for r in range(1, 9))
    print(f"identities exact for r <= 8: {ok}\n")

print("brute-force cross-check on C4: f_4 =",
      brute_walk_counts(cycle_graph(4), 4)[0][4], "(census:",
      walk_census(cycle_graph(4), 4).f[4], ")")

loop = build_from_edge_list([(0, 0)], 1)
print("\nmultigraph conventions: a loop is a 2-regular graph;",
      "census f =", walk_census(loop, 4).f, "z =", walk_census(loop, 4).z)
