"""Spectral simulator for anomalous qubit relaxation and Otto refrigeration.

The package models a driven qubit exchanging heat with thermal auxiliaries:
channel construction and generator extraction, spectral relaxation analysis,
the population-inverting unitary that accelerates equilibration, and the
five-stroke refrigerator that cashes the speedup in as cooling power.  Names
are imported from their modules, e.g. ``from mpembasim.otto import
run_cycle``; the command-line front end is :mod:`mpembasim.cli`.
"""

__version__ = "0.1.0"
