import math

import numpy as np
import pytest

from meridian.reports import CHUNK_ROWS, write_csv
from oracles import write_csv_reference

NAN, INF = math.nan, math.inf


def _chunked_rows():
    # two full formatting chunks and one row more, every value distinct
    rng = np.random.default_rng(5)
    n = 2 * CHUNK_ROWS + 1
    return list(zip(rng.standard_normal(n).tolist(),
                    rng.integers(-10 ** 6, 10 ** 6, n).tolist(),
                    (rng.random(n) < 0.5).tolist()))


# name -> (header, per-field formats, rows): one case per row shape the
# commands write
CASES = {
    "labels": (("kind", "regime"), ("%s", "%s"),
               [("no_swirl", "low:K<=1"), ("pure_swirl", "high:K>1"),
                ("u_theta", "mid:K<=1")]),
    "floats-12g": (("r", "value", "ratio"), ("%.12g",) * 3,
                   [(NAN, INF, -INF), (-0.0, 0.0, 0.1), (1 / 3, 1e300, 5e-324),
                    (np.float64(2.5e-7), -123456789.123456789, 1e16)]),
    "floats-17g": (("reconstructed", "exact"), ("%.17g",) * 2,
                   [(0.1, 1 / 3), (-0.0, NAN), (1e-310, math.pi),
                    (INF, -2.0 ** 60)]),
    "counts-and-flags": (("region_cells", "lower_ok", "feasible"),
                         ("%d",) * 3,
                         [(0, True, False), (5241, False, True),
                          (-3, True, True), (2 ** 40, False, False)]),
    "roundtrip-shape": (("kind", "component", "r", "z", "reconstructed",
                         "exact"),
                        ("%s", "%s", "%.12g", "%.12g", "%.17g", "%.17g"),
                        [("no_swirl", "u_r", 1.2, -0.5, 1e-3 / 3, -0.0)]),
    "no-rows": (("mu", "region_cells", "region_fraction"),
                ("%.12g", "%d", "%.12g"), []),
    "two-chunks-plus-one": (("value", "count", "flag"),
                            ("%.12g", "%d", "%d"), _chunked_rows()),
}


def _fields(formats, row):
    # as the commands formatted fields for the csv module: floats by `%`,
    # flags through int(), counts and labels as they are
    return [int(v) if fmt == "%d" else v if fmt == "%s" else fmt % v
            for fmt, v in zip(formats, row)]


@pytest.mark.parametrize("name", list(CASES))
def test_write_csv_matches_csv_writer_reference(tmp_path, name):
    header, formats, rows = CASES[name]
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    write_csv_reference(str(ref), header,
                        [_fields(formats, row) for row in rows])
    # a generator, as most commands pass their rows
    write_csv(str(out), header, ",".join(formats), (row for row in rows))
    assert out.read_bytes() == ref.read_bytes()
    assert out.read_bytes().count(b"\r\n") == len(rows) + 1

