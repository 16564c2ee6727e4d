"""Reader for the CSV files `ddnpca run` writes: columns by name, never by
position, so a new column breaks no test."""

import csv
import io


def read_rows(text: str) -> list[dict[str, str]]:
    """The data rows of a results or summary CSV, each keyed by the file's
    own header."""
    return list(csv.DictReader(io.StringIO(text)))
