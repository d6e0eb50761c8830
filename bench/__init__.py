"""Performance benchmark of the DynAMO reproduction, driven from outside.

``python -m bench run`` measures what users of the reproduction wait on:
Fig. 7/8 policy sweeps, a large single ``repro run`` grid, and ``repro
serve`` batches.  Each pass runs in a fresh process, every result is
checked against ``bench/reference.json``, and ``python -m bench trace
<workload>`` splits the time by layer.  See ``bench/README.md``.
"""
