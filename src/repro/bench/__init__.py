"""Evaluation harness: campaigns, table formatting and paper reference values.

* :mod:`repro.bench.campaign` — runs a scenario suite through one or more
  system generations on a chosen execution platform and aggregates
  :class:`~repro.core.metrics.CampaignResult` objects.
* :mod:`repro.bench.tables` — renders the aggregated results in the layout of
  the paper's tables (Tables I-III, Fig. 7's utilisation summary) next to the
  paper's reported values.
* :mod:`repro.bench.paper_values` — the numbers the paper reports, used for
  side-by-side comparison and for the shape checks in EXPERIMENTS.md.
"""

from repro.bench.campaign import Campaign
from repro.bench.tables import (
    format_markdown_table,
    format_table,
    render_landing_table,
    render_detection_table,
    render_resource_summary,
)
from repro.bench import paper_values

__all__ = [
    "Campaign",
    "format_markdown_table",
    "format_table",
    "render_landing_table",
    "render_detection_table",
    "render_resource_summary",
    "paper_values",
]
