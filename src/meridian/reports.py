"""The one writer of every report: CSV for grids and traces, JSON for
summaries.  CSV: a header row, CRLF line ends, unquoted fields.  JSON:
indent 2, sorted keys, a final newline.  A CSV column that repeats values
can be formatted ahead through `column_text`, each distinct value once.
"""

import json
from itertools import chain, islice

import numpy as np

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


def column_text(values, fmt):
    """Per value, `fmt % value` (a one-field template, e.g. "%.12g,", with
    no line break): each distinct float is formatted once and its text
    gathered back in input order.  Floats are told apart by their bits, so
    -0.0 and 0.0 keep their own texts."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = ("\n".join([fmt] * len(distinct))
             % tuple(distinct.view(float).tolist())).split("\n")
    return np.array(texts, dtype=object)[inverse]


def write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
