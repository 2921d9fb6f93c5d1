"""The one writer of every report: CSV for grids and traces, JSON for
summaries.  CSV: a header row, CRLF line ends, unquoted fields.  JSON:
indent 2, sorted keys, a final newline.
"""

import json
from itertools import chain, islice

CHUNK_ROWS = 1024                   # rows formatted by one `%`


def write_csv(path, header, row_format, rows):
    """`header`, then every row (a tuple of values) through the line
    template `row_format`, e.g. "%s,%.12g,%d" (no `%%`), one `%` per
    CHUNK_ROWS rows.  Nothing is quoted, so no header name or formatted
    field may hold a comma, a quote or a line break."""
    width = row_format.count("%")
    values = chain.from_iterable(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := tuple(islice(values, CHUNK_ROWS * width)):
            fh.write((row_format + "\r\n") * (len(chunk) // width) % chunk)


def write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
