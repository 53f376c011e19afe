"""The experiment harness, complexity fits and table rendering.

``repro.analysis.experiments`` holds one function per experiment of the
index in DESIGN.md (E1-E18) and renders EXPERIMENTS.md from them;
``repro.analysis.complexity`` estimates scaling exponents from
measurements; ``repro.analysis.tables`` renders the tables.
"""

from repro.analysis.complexity import fit_power_law, log_log_slope
from repro.analysis.stats import summarize, wilson_interval
from repro.analysis.tables import render_table

__all__ = [
    "fit_power_law",
    "log_log_slope",
    "summarize",
    "wilson_interval",
    "render_table",
]
