"""Touch → tuple-identifier mapping (the "Rule of Three").

The key step in dbTouch: a touch at location ``t`` inside a data-object
view of size ``o`` representing ``n`` tuples maps to tuple identifier
``id = n * t / o``.  For single-column objects only the slide axis is
needed; for table objects the second screen dimension selects the
attribute.  Rotating an object swaps which screen axis plays which role
but does not change the arithmetic, because touches are expressed in the
object view's own coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.touchio.events import ENDED_CODE, TouchStream
from repro.touchio.views import View


@dataclass(frozen=True)
class MappedTouch:
    """The result of mapping one touch location onto a data object.

    Attributes
    ----------
    rowid:
        The tuple identifier the touch corresponds to.
    attribute_index:
        Which attribute the touch selects (always 0 for single-column
        objects; derived from the cross axis for table objects).
    fraction:
        The touch position along the tuple axis as a fraction in [0, 1].
    """

    rowid: int
    attribute_index: int
    fraction: float


@dataclass(frozen=True)
class MappedBatch:
    """A whole touch stream mapped onto a data object in one numpy pass.

    Parallel arrays, one entry per mapped event: ``rowids`` (int64),
    ``fractions`` (float64) and the event ``timestamps`` (float64).
    Element ``i`` equals what :meth:`TouchMapper.map_touch` returns for
    event ``i``.  There is no attribute index: the batch path serves
    column objects and select-where slides, whose attribute is the
    action's, not the touch's.
    """

    rowids: np.ndarray
    fractions: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return int(self.rowids.shape[0])


class TouchMapper:
    """Maps touch locations within a view to tuple identifiers.

    Parameters
    ----------
    granularity:
        Number of tuples represented by one touch position step.  The
        default of 1 maps positions directly through the Rule of Three;
        larger values snap rowids to multiples of the granularity, which is
        the "vary the touch granularity on demand" knob from the paper.
    """

    def __init__(self, granularity: int = 1):
        if granularity < 1:
            raise MappingError("touch granularity must be at least 1")
        self.granularity = granularity

    # ------------------------------------------------------------------ #
    # the Rule of Three
    # ------------------------------------------------------------------ #
    @staticmethod
    def rule_of_three(touch_location: float, object_size: float, num_tuples: int) -> int:
        """``id = n * t / o`` with clamping to the valid rowid range."""
        if object_size <= 0:
            raise MappingError("object size must be positive")
        if num_tuples <= 0:
            raise MappingError("data object has no tuples to map to")
        raw = int(num_tuples * touch_location / object_size)
        return min(num_tuples - 1, max(0, raw))

    # ------------------------------------------------------------------ #
    # mapping against views
    # ------------------------------------------------------------------ #
    def map_touch(self, view: View, x: float, y: float) -> MappedTouch:
        """Map a touch location (view-local coordinates, cm) to a tuple id.

        For a vertically oriented object the view height is the tuple axis
        and the width (if the object is a table) selects the attribute; a
        rotated (horizontal) object swaps the roles of the two axes.
        """
        props = view.properties
        if props is None:
            raise MappingError(f"view {view.name!r} has no data-object properties attached")
        if props.orientation == "vertical":
            tuple_location, tuple_extent = y, view.height
            attr_location, attr_extent = x, view.width
        else:
            tuple_location, tuple_extent = x, view.width
            attr_location, attr_extent = y, view.height
        if not 0.0 <= tuple_location <= tuple_extent + 1e-9:
            raise MappingError(
                f"touch at {tuple_location:.3f} cm is outside the object extent "
                f"of {tuple_extent:.3f} cm"
            )
        rowid = self.rule_of_three(tuple_location, tuple_extent, props.num_tuples)
        if self.granularity > 1:
            rowid = (rowid // self.granularity) * self.granularity
            rowid = min(props.num_tuples - 1, rowid)
        attribute_index = 0
        if props.num_attributes > 1 and attr_extent > 0:
            attribute_index = int(props.num_attributes * attr_location / attr_extent)
            attribute_index = min(props.num_attributes - 1, max(0, attribute_index))
        fraction = tuple_location / tuple_extent if tuple_extent else 0.0
        return MappedTouch(rowid=rowid, attribute_index=attribute_index, fraction=fraction)

    def map_batch(self, view: View, stream: TouchStream, active_only: bool = False) -> MappedBatch:
        """Map a whole touch stream to tuple identifiers in one pass.

        This is the vectorized Rule of Three: the primary finger's location
        in every event is converted to (rowid, fraction) with numpy
        arithmetic straight off the stream's arrays, producing exactly the
        rowids and fractions a loop of :meth:`map_touch` calls would.  With
        ``active_only``, ENDED/CANCELLED events are dropped first (the
        slide path's filter).
        """
        props = view.properties
        if props is None:
            raise MappingError(f"view {view.name!r} has no data-object properties attached")
        if props.orientation == "vertical":
            tuple_locations, tuple_extent = stream.ys[:, 0], view.height
        else:
            tuple_locations, tuple_extent = stream.xs[:, 0], view.width
        timestamps = stream.timestamps
        if active_only:
            active = stream.phases < ENDED_CODE
            tuple_locations, timestamps = tuple_locations[active], timestamps[active]
        if tuple_locations.size and (
            tuple_locations.min() < 0.0 or tuple_locations.max() > tuple_extent + 1e-9
        ):
            raise MappingError(f"touch is outside the object extent of {tuple_extent:.3f} cm")
        if props.num_tuples <= 0:
            raise MappingError("data object has no tuples to map to")
        if tuple_extent <= 0:
            raise MappingError("object size must be positive")
        raw = (props.num_tuples * tuple_locations / tuple_extent).astype(np.int64)
        rowids = np.minimum(props.num_tuples - 1, np.maximum(0, raw))
        if self.granularity > 1:
            rowids = (rowids // self.granularity) * self.granularity
            rowids = np.minimum(props.num_tuples - 1, rowids)
        return MappedBatch(
            rowids=rowids,
            fractions=tuple_locations / tuple_extent,  # the extent is positive here
            timestamps=timestamps,
        )
