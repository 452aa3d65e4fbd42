"""Experiment orchestration: configs, counter-based streams, runners, and
the command-line interface.

Nothing is re-exported: the core modules import harness.rng, so loading
this package must not pull in the runner (which imports those core modules
back).
"""
