"""Terminal analysis helpers, and the paper's experiment table."""

from .charts import bar_chart, comparison_summary, sparkline, stacked_chart
from .coherence import (
    CoherenceReport,
    analyze_by_kind,
    analyze_group,
    treelet_transitions,
    warp_overlap,
)
from .experiments import (
    EXPERIMENTS,
    default_results_path,
    evaluate,
    load_results,
    write_results,
)
from .figures import (
    render_all,
    render_effectiveness_figure,
    render_markdown,
    render_recorded,
    render_speedup_figure,
)

__all__ = [
    "EXPERIMENTS",
    "CoherenceReport",
    "analyze_by_kind",
    "analyze_group",
    "bar_chart",
    "comparison_summary",
    "default_results_path",
    "evaluate",
    "load_results",
    "render_all",
    "render_effectiveness_figure",
    "render_markdown",
    "render_recorded",
    "render_speedup_figure",
    "sparkline",
    "stacked_chart",
    "treelet_transitions",
    "warp_overlap",
    "write_results",
]
