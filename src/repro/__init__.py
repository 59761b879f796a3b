"""Jackpine reproduction: a spatial database benchmark, all the way down.

This package reimplements the system described in *"Jackpine: A benchmark
to evaluate spatial database performance"* (Ray, Simion, Demke Brown,
ICDE 2011) as a self-contained pure-Python stack:

- :mod:`repro.geometry` / :mod:`repro.algorithms` — OGC simple features,
  DE-9IM, overlay, buffer, hull, distance (built from scratch);
- :mod:`repro.index` — R-tree, grid, quadtree, scan indexes;
- :mod:`repro.sql`, :mod:`repro.storage`, :mod:`repro.engines` — an
  embedded spatial SQL engine with three capability profiles standing in
  for the paper's two open-source DBMSes and one commercial DBMS;
- :mod:`repro.dbapi` — the PEP 249 portability layer (the paper's JDBC);
- :mod:`repro.datagen` — a deterministic TIGER-like dataset;
- :mod:`repro.core` — the Jackpine benchmark itself: DE-9IM and
  spatial-analysis micro suites, a loading suite, six macro scenarios,
  and the experiment registry that turns them into the paper's tables.

Quickstart: the paper's topology table (J-T1) on all three engines::

    from repro.core.experiments import EXPERIMENTS, render

    print(render("jt1", EXPERIMENTS["jt1"].run(scale=0.5)))

``import repro`` loads the engine, not the benchmark: :mod:`repro.core`
is imported only when asked for.
"""

from repro.datagen import generate
from repro.dbapi import connect
from repro.engines import Database

__version__ = "1.0.0"

__all__ = [
    "Database",
    "connect",
    "generate",
    "__version__",
]
