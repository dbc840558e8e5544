"""Data-object shapes: the visual vocabulary of the dbTouch front-end.

Data objects are abstract representations — a column is a thin vertical
rectangle, a table a fat rectangle — and the actual data only becomes
visible during query processing.  This module describes those shapes
(dimensions, colour, labels, zoom level) independently of any concrete
rendering technology; :mod:`repro.viz.render` turns them into text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

from repro.errors import VisualizationError
from repro.touchio.views import View

#: Default palette cycled over data objects, mirroring the coloured columns
#: in the prototype screenshots.
DEFAULT_PALETTE = ("blue", "orange", "green", "red", "purple", "teal")


@dataclass
class DataObjectShape:
    """The drawable description of one data object.

    Attributes
    ----------
    name:
        Catalog name of the object.
    kind:
        ``"column"`` or ``"table"``.
    width_cm / height_cm:
        Physical size on screen.
    color:
        Display colour.
    num_tuples / num_attributes:
        Scale information shown in the object's label.
    orientation:
        ``"vertical"`` or ``"horizontal"`` (after rotation).
    zoom_level:
        How many zoom-in steps have been applied (negative for zoom-out).
    """

    name: str
    kind: str
    width_cm: float
    height_cm: float
    color: str
    num_tuples: int
    num_attributes: int = 1
    orientation: str = "vertical"
    zoom_level: int = 0

    def __post_init__(self) -> None:
        if self.width_cm <= 0 or self.height_cm <= 0:
            raise VisualizationError("data-object shapes need positive dimensions")
        if self.kind not in ("column", "table"):
            raise VisualizationError(f"unknown object kind {self.kind!r}")

    @property
    def label(self) -> str:
        """The short label drawn next to the shape."""
        scale = f"{self.num_tuples:,} tuples"
        if self.kind == "table":
            scale += f" x {self.num_attributes} attrs"
        return f"{self.name} ({scale})"


def shape_from_view(view: View, color: str) -> DataObjectShape:
    """Build a shape mirroring the current geometry of a kernel view."""
    props = view.properties
    if props is None:
        raise VisualizationError(f"view {view.name!r} carries no data-object properties")
    return DataObjectShape(
        name=props.object_name,
        kind="column" if props.num_attributes == 1 else "table",
        width_cm=view.width,
        height_cm=view.height,
        color=color,
        num_tuples=props.num_tuples,
        num_attributes=props.num_attributes,
        orientation=props.orientation,
    )


def assign_colors(names: list[str]) -> dict[str, str]:
    """Deterministically assign palette colours to object names."""
    colors = {}
    palette = cycle(DEFAULT_PALETTE)
    for name in names:
        colors[name] = next(palette)
    return colors
