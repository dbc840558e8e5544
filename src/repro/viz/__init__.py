"""Visualization: data-object shapes and text rendering of the screen."""

from repro.viz.objects import DataObjectShape, assign_colors, shape_from_view
from repro.viz.render import render_results, render_screen

__all__ = [
    "DataObjectShape",
    "assign_colors",
    "render_results",
    "render_screen",
    "shape_from_view",
]
