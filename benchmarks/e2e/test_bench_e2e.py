"""Checks of the benchmark itself, on the ~10x smaller ``--quick`` inputs.

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = [sys.executable, str(HERE / "bench.py")]
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import bench  # noqa: E402
import compare  # noqa: E402

workloads, _tracing = bench.import_program()


@pytest.fixture(scope="module")
def quick_doc(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    subprocess.run([*BENCH, "--quick", "--out", str(out)], check=True, timeout=900)
    return json.loads(out.read_text())


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_quick_document_has_every_declared_name(quick_doc):
    assert quick_doc["mode"] == "quick"
    assert set(quick_doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for entry in quick_doc["workloads"].values():
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert all(m["median"] > 0 for m in entry["end_to_end"].values())
        assert entry["end_to_end"]["wall_s"]["n"] == bench.REPETITIONS


def test_outputs_are_correct_and_digests_agree(quick_doc):
    # ops_failed counts digest disagreement between repetitions, a fleet CSV
    # that differs from the sequential one, and any datapath bit that moved.
    for name, entry in quick_doc["workloads"].items():
        assert entry["ops_failed"] == 0, name
        assert entry["ops_failed_frac"] == 0.0
    seq, fleet = (quick_doc["workloads"][n]
                  for n in ("grid18_tiny_seq", "grid18_tiny_fleet"))
    assert seq["sim_digest"] == fleet["sim_digest"]


def test_layers_split_as_predicted(quick_doc):
    layer = lambda w, name: quick_doc["workloads"][w]["per_layer"][name]["value"]
    for engine_free in ("rmsim_trace", "redist_datapath"):
        for name in ("cluster.cpu.share", "cluster.network.share", "smpi.share"):
            assert layer(engine_free, name) == 0.0
    assert layer("rmsim_trace", "rmsim.share") > 0.5
    assert layer("redist_datapath", "redistribution.share") + layer(
        "redist_datapath", "numpy.share") > 0.9
    assert layer("grid18_tiny_seq", "redistribution.transfers") > 0
    assert layer("grid18_tiny_fleet", "harness.fleet.cells_streamed") == 36


def test_datapath_round_trip_is_bit_exact_and_corruption_is_counted():
    clean = workloads.RedistDatapath(0, quick=True).round()
    assert clean.failed == 0
    corrupted = workloads.RedistDatapath(0, quick=True, corrupt_hop=2).round()
    # One flipped payload bit fails that hop and every block hop after it.
    assert corrupted.failed >= 1
    assert corrupted.digest == clean.digest  # sizes are right; only bits moved


def test_fleet_rows_are_checked_against_a_sequential_sweep():
    fleet = workloads.Grid18(0, quick=True, workers=workloads.FLEET_WORKERS)
    try:
        rounds = [fleet.round()]
        assert fleet.verify(rounds, thorough=False) == (0, {})
        fleet._csvs[0] = fleet._csvs[0].replace("ethernet", "ethernot")
        failed, _ = fleet.verify(rounds, thorough=False)
        assert failed == fleet.ops_per_round
    finally:
        fleet.close()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_fleet_repetition_leaves_no_process_behind():
    # Its own session, so whatever it started can be found after it exits:
    # fleet workers, and multiprocessing's resource tracker for the rings.
    done = subprocess.Popen(
        [*BENCH, "--workload", "grid18_tiny_fleet", "--quick", "--seconds", "0",
         "--trace", "0"],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert done.wait(timeout=300) == 0
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            session = int(stat.read_text().rsplit(")", 1)[1].split()[3])
        except OSError:  # gone since the glob
            continue
        if session == done.pid:
            left.append(stat.parent.name)
    assert not left


def test_compare_against_itself_is_same_everywhere(quick_doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(quick_doc))
    assert compare.main(SPEC, str(path), str(path)) == 0
    rows = capsys.readouterr().out.splitlines()[1:]  # after the legend
    assert len(rows) == len(SPEC["workloads"])
    assert not any("worse" in row or "model changed" in row for row in rows)


def test_compare_flags_a_regression_and_a_model_change(quick_doc, tmp_path):
    slower = json.loads(json.dumps(quick_doc))
    entry = slower["workloads"]["rmsim_trace"]
    wall = entry["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        wall[key] *= 2
    wall["values"] = [v * 2 for v in wall["values"]]
    entry["per_layer"]["rmsim.events"]["value"] += 1
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(quick_doc))
    b.write_text(json.dumps(slower))
    assert compare.main(SPEC, str(a), str(b)) == 1
    assert compare.exact_mismatches(
        quick_doc["workloads"]["rmsim_trace"], entry
    ) == ["rmsim.events"]


def test_refuses_to_measure_under_a_repro_knob():
    done = subprocess.run(
        [*BENCH, "--workload", "rmsim_trace", "--quick", "--trace", "0"],
        env={**os.environ, "REPRO_BATCH": "0"}, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "REPRO_BATCH" in done.stderr and not done.stdout
