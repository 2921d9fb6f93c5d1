"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import csv
import json
import os
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from meridian import cli, envelopes               # noqa: E402
from run import REF_BLOCK_S, HostSpeed, Window    # noqa: E402
from tracing import Tracer, self_times            # noqa: E402
from workloads import (CheckError, Exponents, check_scan_csv,  # noqa: E402
                       evaluated_points)

TINY_SCAN = "scan.n_r = 3\nscan.n_ratio = 4\nscan.n_zeta = 3\nscan.refine = false\n"


@pytest.fixture(scope="module")
def scan_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    cfg = out / "scan.cfg"
    cfg.write_text(TINY_SCAN)
    assert cli.main(["kernel-scan", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "scan_gamma23_alpha0.5.csv"


def _rewrite(src, dst, edit):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    for i, row in enumerate(rows[1:]):
        edit(i, row)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _check(path, sample=10 ** 6):
    # a sample larger than the file makes the oracle see every row
    return check_scan_csv(str(path), "gamma23", 0.5,
                          np.random.default_rng(0), n_sample=sample)


def test_scan_csv_accepted_as_written(scan_csv):
    rows, err = _check(scan_csv)
    assert rows > 100 and err < 1e-6


def test_perturbed_kernel_value_is_caught(scan_csv, tmp_path):
    bad = tmp_path / "one_row.csv"

    def bump_one(i, row):
        if i == 17:
            row[5] = "%.12g" % (float(row[5]) * 1.001)
    _rewrite(scan_csv, bad, bump_one)
    with pytest.raises(CheckError, match="kernel != ratio"):
        _check(bad, sample=1)


def test_consistently_perturbed_kernel_caught_by_oracle(scan_csv, tmp_path):
    # kernel and ratio scaled together keep the file self-consistent, so
    # only the recomputation with kernel_triple can catch it
    bad = tmp_path / "all_rows.csv"

    def scale(i, row):
        row[5] = "%.12g" % (float(row[5]) * 1.001)
        row[7] = "%.12g" % (float(row[7]) * 1.001)
    _rewrite(scan_csv, bad, scale)
    with pytest.raises(CheckError, match="oracle"):
        _check(bad)


def test_missing_csv_is_caught(tmp_path):
    with pytest.raises(CheckError):
        _check(tmp_path / "absent.csv")


def test_self_time_subtracts_union_of_children():
    spans = [(1, "root", 0.0, 10.0, None, "c", None),
             (2, "a", 1.0, 4.0, 1, "c", None),
             (3, "b", 3.0, 6.0, 1, "c", None),      # overlaps a (two threads)
             (4, "c", 5.0, 5.5, 3, "c", None)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 5.0, 2: 3.0, 3: 2.5, 4: 0.5})


def test_scan_points_count_what_the_kernels_evaluate():
    # plus one point on the diagonal and one at r <= 1, both left out
    grid = np.vstack([envelopes.scan_grid(n_r=3, n_ratio=4, n_zeta=3),
                      [[2.0, 2.001, 0.0], [1.0, 2.0, 1.0]]])
    tracer = Tracer()
    tracer.install()
    try:
        envelopes.evaluate_scan_grid(grid)
    finally:
        tracer.uninstall()
    points = sum(s[6][0] for s in tracer.spans
                 if s[1] == "kernels.kernel_batch.scan")
    assert evaluated_points(grid) == points == len(grid) - 2


def test_command_that_writes_no_report_fails(tmp_path):
    wl = Exponents(0, str(tmp_path), 1)
    window = Window(wl)
    window._one_index(0)
    assert window.attempted == 4 and window.failed == 0
    # the reports of the first pass are on disk; a command that exits 0
    # but writes nothing must not be checked against them
    wl._cli = lambda *argv: 0
    window._one_index(1)
    assert window.failed == 2       # feasibility and bmo
    for cmd in wl.commands(2)[:2]:
        with pytest.raises(CheckError):
            cmd.check(0)


def test_each_list_divided_by_the_blocks_timed_during_it():
    speed = HostSpeed()
    speed.starts = [0.5, 2.0]
    speed.blocks = [REF_BLOCK_S, 2 * REF_BLOCK_S]
    window = Window(None)
    window.times = {"cmd": [1.0, 2.0]}
    window.lists = {"cmd": [0, 1]}
    window.list_spans = [(0.0, 1.0), (1.0, 3.0)]
    window.list_durations = [1.0, 2.0]
    assert window.wall_s() == pytest.approx(1.5)
    assert window.wall_s(speed=speed) == pytest.approx(1.0)
    assert window.command_s(speed) == pytest.approx(2.0)
    # a list during which no block ran takes the mean of all blocks
    assert speed.factor(5.0, 6.0) == pytest.approx(1.5)


def test_host_speed_timer_runs_only_inside_the_window():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(speed.blocks) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_printed_with_unit(trace, group):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = _run(ROOT, "--workload", "exponents", "--seed", "3", "--seconds",
                "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in bench[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "info: lq_exponent_err" in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "exponents", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
