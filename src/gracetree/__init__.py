"""Randomized near-complete graceful labelling of trees.

Pipeline: preprocess a tree (cut a few edges so every component is
small, order the vertices, assign target intervals), then label every
vertex by a randomized greedy process with correction removals that keep
the free label sets quasirandom; verify_graceful checks each completed
labelling.  Companion pieces: exact small-case solvers, verifiers for
graceful / bipartite-graceful / harmonious labellings, cyclic packings
of complete graphs, and empirical concentration checks.
"""

__version__ = "0.1.0"
