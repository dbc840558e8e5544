"""The astronomer scenario: browsing a sky survey for interesting effects.

The paper motivates dbTouch with an astronomer who "wants to browse parts
of the sky to look for interesting effects".  This example loads a
synthetic sky-object catalog with a planted transient event (a small
declination band of unusually bright objects) and explores it the dbTouch
way:

* a coarse interactive-summary slide over the magnitude column to spot the
  suspicious region,
* a zoom-in plus a slower, partial slide to localize it,
* a tap on the table object to inspect a full tuple from the region,
* and a comparison of how much data was touched versus what a single
  full-scan SQL query would have read.

Run it with::

    python examples/astronomer_sky_survey.py
"""

from __future__ import annotations

import numpy as np

from repro import ExplorationSession, IPAD1
from repro.baseline import MonolithicEngine, SqlInterface
from repro.workloads import sky_survey_scenario


def main() -> None:
    scenario = sky_survey_scenario(num_objects=500_000)
    print(scenario.description)
    print(f"catalog: {len(scenario.table):,} sky objects, columns {scenario.table.column_names}")

    session = ExplorationSession(profile=IPAD1)
    session.load_table("sky_survey", scenario.table)

    # ---------------------------------------------------------------- #
    # phase 1: coarse slide over the magnitude column
    # ---------------------------------------------------------------- #
    magnitude_view = session.show_column("sky_survey", column_name="magnitude", height_cm=10.0)
    session.choose_summary(magnitude_view, k=10, aggregate="avg")
    coarse = session.slide(magnitude_view, duration=3.0)

    values = np.asarray([r.value for r in coarse.results], dtype=np.float64)
    fractions = np.asarray([r.position_fraction for r in coarse.results])
    brightest_fraction = float(fractions[int(np.argmin(values))])
    print(
        f"\ncoarse slide: {coarse.entries_returned} summaries; the brightest region "
        f"(lowest magnitude) is around fraction {brightest_fraction:.2f} of the column"
    )

    # ---------------------------------------------------------------- #
    # phase 2: zoom in and slide slowly over the suspicious region only
    # ---------------------------------------------------------------- #
    session.zoom_in(magnitude_view)
    lo = max(0.0, brightest_fraction - 0.05)
    hi = min(1.0, brightest_fraction + 0.05)
    fine = session.slide(magnitude_view, duration=3.0, start_fraction=lo, end_fraction=hi)
    fine_values = np.asarray([r.value for r in fine.results], dtype=np.float64)
    print(
        f"zoomed slide over [{lo:.2f}, {hi:.2f}]: {fine.entries_returned} summaries, "
        f"brightest summary magnitude {fine_values.min():.2f} "
        f"(background is around {np.median(values):.2f})"
    )

    # ---------------------------------------------------------------- #
    # phase 3: tap the full table at the interesting position
    # ---------------------------------------------------------------- #
    table_view = session.show_table("sky_survey", x=6.0, height_cm=10.0, width_cm=8.0)
    tap = session.tap(table_view, fraction=brightest_fraction)
    print("\na tap on the table object at that position reveals the tuple:")
    for attribute, value in tap.revealed_tuple.items():
        print(f"  {attribute:>17}: {value:.4f}")

    ground_truth = scenario.patterns[0]
    found = (
        ground_truth.start_fraction - 0.05
        <= brightest_fraction
        <= ground_truth.end_fraction + 0.05
    )
    print(
        f"\nplanted transient lives in fractions "
        f"[{ground_truth.start_fraction:.2f}, {ground_truth.end_fraction:.2f}] — "
        f"{'found it' if found else 'missed it'}"
    )

    # ---------------------------------------------------------------- #
    # how much data did the exploration touch, versus one SQL full scan?
    # ---------------------------------------------------------------- #
    touched = session.summary().tuples_examined
    engine = MonolithicEngine()
    engine.register(scenario.table)
    sql = SqlInterface(engine)
    sql.execute("SELECT AVG(magnitude) FROM sky_survey")
    print(
        f"\ndata touched by the whole gesture session: {touched:,} values; "
        f"a single SQL AVG over the column reads {engine.total_cells_read:,} values"
    )


if __name__ == "__main__":
    main()
