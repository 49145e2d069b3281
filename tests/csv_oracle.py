"""Reference records.csv writer: one ``csv.writer`` row per record.

This is the serialization the columnar ``montecarlo.records_to_csv``
replaced.  It walks the batches row by row, through the ``TrialRecord``
views, and lets the csv module do the quoting and line ends, so it
gives the bytes the columnar writer must reproduce.
"""

import csv


def _format_g(g) -> str:
    if isinstance(g, tuple):
        return "|".join(format(float(c), ".17g") for c in g)
    return format(float(g), ".17g")


def records_to_csv_per_row(batches, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "g", "stop_index", "stopped_log_beta", "seed", "trial"])
        for records in batches:
            for r in records:
                writer.writerow(
                    [
                        r.k,
                        _format_g(r.g),
                        r.stop_index,
                        format(r.stopped_log_beta, ".17g"),
                        r.seed,
                        r.trial,
                    ]
                )
