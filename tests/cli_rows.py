"""Read the rows of a CSV that ``fpsq criterion`` or ``fpsq sweep`` wrote."""

import csv
import io


def read_rows(path: str) -> list[dict]:
    """The CSV rows as dicts of strings, without the ``#`` metadata line."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(lines))))
