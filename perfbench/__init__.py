"""The repo benchmark (``BENCHMARK.json``).

* :mod:`perfbench.run` — the command: one workload, one seed, one result;
* :mod:`perfbench.workloads` — the workloads as run specs;
* :mod:`perfbench.measure` — the end-to-end loop and the traced run;
* :mod:`perfbench.speed` — rescaling wall time to a reference machine
  speed, sampled while the end-to-end figures are measured;
* :mod:`perfbench.layers` / :mod:`perfbench.spans` — layer boundaries,
  span recording from outside ``src/``, self-time arithmetic;
* :mod:`perfbench.checks` — decision digest and resource conservation;
* ``attribution.json`` — which end-to-end metric each layer should move;
* ``reference_digests.json`` — stored digests, refreshed with
  ``record_references.py``.

Its own tests: ``python -m pytest perfbench/tests``.
"""
