"""Schema and layout gestures (Section 2.8 of the paper).

Beyond querying, exploration includes re-organizing the data with gestures:

* **pan** — drag a data object to a different position on the screen;
* **drag a column out** of a fat table — project it into its own, smaller
  object so subsequent gestures touch only the needed data;
* **drop columns into a table placeholder** — group independent columns
  (of equal length) into a new table object;
* **ungroup** — split a table back into its individual columns.

These operate on the catalog and the view hierarchy; the touch-to-rowid
mapping and the query actions keep working on the resulting objects without
any special cases.  :class:`SchemaGestures` is used by the session facade.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.views import Rect, View


@dataclass(frozen=True)
class SchemaGestureOutcome:
    """What a schema gesture did: the objects it created or moved."""

    gesture: str
    created_objects: tuple[str, ...] = ()
    removed_objects: tuple[str, ...] = ()
    moved_view: str | None = None
    new_position: tuple[float, float] | None = None


class SchemaGestures:
    """Schema/layout gestures bound to a kernel (catalog + device + views)."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel

    # ------------------------------------------------------------------ #
    # pan: move an object around the screen
    # ------------------------------------------------------------------ #
    def pan_view(self, view: View, dx_cm: float, dy_cm: float) -> SchemaGestureOutcome:
        """Move ``view`` by (dx, dy) centimeters, clamped to the screen."""
        profile = self._kernel.device.profile
        new_x = min(
            max(0.0, view.frame.x + dx_cm),
            max(0.0, profile.screen_width_cm - view.frame.width),
        )
        new_y = min(
            max(0.0, view.frame.y + dy_cm),
            max(0.0, profile.screen_height_cm - view.frame.height),
        )
        view.frame = Rect(new_x, new_y, view.frame.width, view.frame.height)
        return SchemaGestureOutcome(
            gesture="pan",
            moved_view=view.name,
            new_position=(new_x, new_y),
        )

    # ------------------------------------------------------------------ #
    # drag a column out of a table
    # ------------------------------------------------------------------ #
    def drag_column_out(
        self,
        table_view: View,
        column_name: str,
        new_object_name: str | None = None,
        x: float = 0.0,
        y: float = 0.0,
        height_cm: float = 10.0,
    ) -> SchemaGestureOutcome:
        """Project ``column_name`` out of the table shown in ``table_view``.

        The column is registered as a standalone object in the catalog and a
        new column-shaped view is placed on the screen; the original table
        object stays untouched so the user can keep comparing both.
        """
        state = self._kernel.state_of(table_view.name)
        if state.table is None:
            raise QueryError("drag_column_out requires a table object")
        if column_name not in state.table:
            raise QueryError(
                f"table {state.object_name!r} has no column {column_name!r}"
            )
        source = state.table.column(column_name)
        object_name = (
            new_object_name
            if new_object_name is not None
            else f"{state.object_name}_{column_name}"
        )
        standalone: Column = source.rename(object_name)
        self._kernel.catalog.register_column(standalone)
        self._kernel.show_column(object_name, x=x, y=y, height_cm=height_cm)
        return SchemaGestureOutcome(
            gesture="drag-column-out", created_objects=(object_name,)
        )

    # ------------------------------------------------------------------ #
    # drop columns into a table placeholder
    # ------------------------------------------------------------------ #
    def group_columns(
        self,
        column_object_names: list[str],
        table_name: str,
        x: float = 0.0,
        y: float = 0.0,
        height_cm: float = 10.0,
        width_cm: float = 8.0,
    ) -> SchemaGestureOutcome:
        """Create a table by dropping standalone columns into a placeholder."""
        if len(column_object_names) < 2:
            raise QueryError("grouping needs at least two columns")
        columns = [self._kernel.catalog.column(name) for name in column_object_names]
        # views, not copies: columns only ever grow, and a grown column
        # reallocates its own buffer, so the table and the standalone
        # objects cannot see each other's appends
        table = Table(table_name, [c.rename(c.name) for c in columns])
        self._kernel.catalog.register_table(table)
        self._kernel.show_table(
            table_name, x=x, y=y, height_cm=height_cm, width_cm=width_cm
        )
        return SchemaGestureOutcome(gesture="group", created_objects=(table_name,))

    # ------------------------------------------------------------------ #
    # ungroup a table into its columns
    # ------------------------------------------------------------------ #
    def ungroup_table(
        self,
        table_view: View,
        height_cm: float = 10.0,
        spacing_cm: float = 0.5,
    ) -> SchemaGestureOutcome:
        """Split the table shown in ``table_view`` into standalone columns.

        Each attribute becomes its own data object, placed side by side
        starting at the original table view's position.
        """
        state = self._kernel.state_of(table_view.name)
        if state.table is None:
            raise QueryError("ungroup_table requires a table object")
        created: list[str] = []
        x = table_view.frame.x
        for column in state.table.columns:
            object_name = f"{state.object_name}_{column.name}"
            if object_name in self._kernel.catalog:
                raise QueryError(
                    f"cannot ungroup: object {object_name!r} already exists"
                )
            self._kernel.catalog.register_column(column.rename(object_name))
            width_cm = 2.0
            if x + width_cm > self._kernel.device.profile.screen_width_cm:
                x = 0.0
            self._kernel.show_column(
                object_name, x=x, y=table_view.frame.y, height_cm=height_cm, width_cm=width_cm
            )
            created.append(object_name)
            x += width_cm + spacing_cm
        return SchemaGestureOutcome(gesture="ungroup", created_objects=tuple(created))
