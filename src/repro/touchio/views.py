"""View hierarchy: placeholders for visual objects, as in a touch OS.

Views are the bridge between the touch OS and dbTouch: each visualized
data object corresponds to one view.  A view knows its physical size (in
centimeters), its position inside its master view and its rotation.
dbTouch attaches extra properties to each view (the
number of tuples in the underlying object, the data types, the data size)
so that a touch location inside the view can be translated to a tuple
identifier with simple arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ViewError


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in a master view's coordinate system (cm)."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ViewError(f"rectangle must have positive size, got {self.width}x{self.height}")


@dataclass
class DataObjectProperties:
    """dbTouch-specific properties attached to a view.

    Attributes
    ----------
    object_name:
        The catalog name of the table or column this view visualizes.
    num_tuples:
        Total number of tuples in the underlying data object.
    num_attributes:
        Number of attributes (1 for a single-column object).
    dtype_names:
        Names of the attribute types, for the schema-at-a-glance display.
    size_bytes:
        Total fixed-width storage size of the object.
    orientation:
        ``"vertical"`` when tuples run along the view's height (the default
        column shape) or ``"horizontal"`` after the object has been rotated
        to lie on its side.
    """

    object_name: str
    num_tuples: int
    num_attributes: int = 1
    dtype_names: tuple[str, ...] = ()
    size_bytes: int = 0
    orientation: str = "vertical"

    def __post_init__(self) -> None:
        if self.num_tuples < 0:
            raise ViewError("num_tuples must be non-negative")
        if self.num_attributes < 1:
            raise ViewError("num_attributes must be at least one")
        if self.orientation not in ("vertical", "horizontal"):
            raise ViewError(f"unknown orientation {self.orientation!r}")


class View:
    """A view: a rectangle in its master view plus dbTouch data properties."""

    def __init__(
        self,
        name: str,
        frame: Rect,
        properties: DataObjectProperties | None = None,
    ) -> None:
        self.name = name
        self.frame = frame
        self.properties = properties
        self.subviews: list["View"] = []
        self.master: "View" | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"View(name={self.name!r}, frame={self.frame}, subviews={len(self.subviews)})"

    # ------------------------------------------------------------------ #
    # hierarchy management
    # ------------------------------------------------------------------ #
    def add_subview(self, view: "View") -> None:
        """Attach ``view`` as a child of this view."""
        if view is self:
            raise ViewError("a view cannot be its own subview")
        if view.master is not None:
            raise ViewError(f"view {view.name!r} already has a master view")
        view.master = self
        self.subviews.append(view)

    def remove_from_master(self) -> None:
        """Detach this view from its master view, if it has one."""
        if self.master is not None:
            self.master.subviews.remove(self)
            self.master = None

    def walk(self) -> Iterator["View"]:
        """Yield this view and every descendant, depth first."""
        yield self
        for sub in self.subviews:
            yield from sub.walk()

    def find(self, name: str) -> "View":
        """Find a descendant view (or self) by name."""
        for view in self.walk():
            if view.name == name:
                return view
        raise ViewError(f"no view named {name!r} under {self.name!r}")

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> float:
        """View width in centimeters."""
        return self.frame.width

    @property
    def height(self) -> float:
        """View height in centimeters."""
        return self.frame.height

    # ------------------------------------------------------------------ #
    # resizing and rotation (zoom-in/out and rotate gestures act here)
    # ------------------------------------------------------------------ #
    def resize(self, scale: float) -> None:
        """Scale the view's frame by ``scale`` (zoom-in > 1, zoom-out < 1).

        The position of the view is preserved; only its size changes.  The
        touch → rowid mapping automatically picks up the new size, which is
        what makes zoom change the granularity of data access.
        """
        if scale <= 0:
            raise ViewError("resize scale must be positive")
        self.frame = Rect(
            x=self.frame.x,
            y=self.frame.y,
            width=self.frame.width * scale,
            height=self.frame.height * scale,
        )

    def rotate(self) -> None:
        """Swap the view's width and height and flip its orientation flag.

        Rotating an object only changes its positioning within its master
        view; touches and tuple identifiers calculated relative to the
        object view are not affected.
        """
        self.frame = Rect(
            x=self.frame.x,
            y=self.frame.y,
            width=self.frame.height,
            height=self.frame.width,
        )
        if self.properties is not None:
            flipped = "horizontal" if self.properties.orientation == "vertical" else "vertical"
            self.properties = DataObjectProperties(
                object_name=self.properties.object_name,
                num_tuples=self.properties.num_tuples,
                num_attributes=self.properties.num_attributes,
                dtype_names=self.properties.dtype_names,
                size_bytes=self.properties.size_bytes,
                orientation=flipped,
            )


def make_column_view(
    name: str,
    object_name: str,
    num_tuples: int,
    height_cm: float = 10.0,
    width_cm: float = 2.0,
    x: float = 0.0,
    y: float = 0.0,
    dtype_names: tuple[str, ...] = (),
    size_bytes: int = 0,
) -> View:
    """Build the standard vertical column-shaped view for a column object."""
    return View(
        name=name,
        frame=Rect(x=x, y=y, width=width_cm, height=height_cm),
        properties=DataObjectProperties(
            object_name=object_name,
            num_tuples=num_tuples,
            num_attributes=1,
            dtype_names=dtype_names,
            size_bytes=size_bytes,
        ),
    )


def make_table_view(
    name: str,
    object_name: str,
    num_tuples: int,
    num_attributes: int,
    height_cm: float = 10.0,
    width_cm: float = 8.0,
    x: float = 0.0,
    y: float = 0.0,
    dtype_names: tuple[str, ...] = (),
    size_bytes: int = 0,
) -> View:
    """Build the fat-rectangle view used for full-table objects."""
    return View(
        name=name,
        frame=Rect(x=x, y=y, width=width_cm, height=height_cm),
        properties=DataObjectProperties(
            object_name=object_name,
            num_tuples=num_tuples,
            num_attributes=num_attributes,
            dtype_names=dtype_names,
            size_bytes=size_bytes,
        ),
    )
