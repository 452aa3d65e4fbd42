"""Experiment orchestration: configs, counter-based streams, runners, and
the command-line interface.

Nothing is re-exported, so importing one module loads only what it needs:
rng alone loads no experiment, and config not the runner and its process
pool.  No core module imports the harness.
"""
