"""Smoke tests of the benchmark itself: short runs print every metric
with its unit, the ledger adds up, and corrupted references fail the
correctness gates."""

from __future__ import annotations

import json
import os
import re

import pytest

import run
from co_extract import COExtract
from common import Phase, SpeedProbe, org_scale
from crud_durable import CrudDurable
from oltp_point import PK_TABLES, OltpPoint
from repro import Engine, ObjectGateway
from repro.workloads.orgdb import (DEPS_ARC_QUERY, create_org_schema,
                                   populate_org)

BENCH = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
SPEC = run.load_json(os.path.join(run.HERE, "spec.json"))
NAMED = {
    "oltp_point": ("lookup_p50_us", "lookup_p99_us", "lookup_ops_s"),
    "co_extract": ("extract_p50_ms", "extract_p90_ms", "co_tuples_s",
                   "nav_objects_s"),
    "crud_durable": ("txn_p50_ms", "txn_p95_ms", "txn_p99_ms", "commits_s"),
}
COMMON = ("setup_s", "peak_rss_mb", "op_fail_ratio")
TABLE_ROWS = {"DEPT": 200, "EMP": 2000, "PROJ": 1000, "SKILLS": 50,
              "PART": 3000}


def _run(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.6", "--trace", str(trace)])
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    return code, json.loads(lines[-1]), "\n".join(lines[:-1])


def _check_printed(report: str, result: dict, workload: str,
                   listed: list) -> None:
    for name in NAMED[workload] + COMMON:
        assert f"  {name} " in report, name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_co_extract_smoke_prints_end_to_end_metrics(capsys):
    code, result, report = _run(capsys, "co_extract", 0)
    _check_printed(report, result, "co_extract", BENCH["end_to_end"])
    assert code == 0 and result["correct"], report
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # A sub-second run cannot reach 10 samples beyond the p90: flagged.
    assert "TOO FEW" in report and "WARNING" in report


def test_metrics_do_not_depend_on_kind_shares():
    """Running one kind twice as often leaves every metric unchanged."""
    def phase(adhoc_copies: int) -> Phase:
        made = Phase()
        for kind, latency in (("adhoc", 400), ("prepared", 250),
                              ("nav", 900)):
            copies = adhoc_copies if kind == "adhoc" else 1
            values = [latency * 1e3 * (1 + i / 100) for i in range(100)]
            made.samples[kind] = values * copies
            made.busy_ns[kind] = sum(values) * copies
            made.counts[kind] = 150 * copies
            made.elapsed_s += sum(values) * copies / 1e9
        return made

    workload = OltpPoint(1)
    once, _ = workload.summarize(phase(1))
    twice, _ = workload.summarize(phase(2))
    assert once == pytest.approx(twice)


def test_times_are_scaled_to_the_reference_speed():
    phase = Phase()
    phase.probe.factor = lambda: 2.0
    phase.attempt("op", lambda: sum(range(10_000)))
    assert list(phase.samples["op"]) == [2.0 * phase.wall_samples["op"][0]]
    assert phase.speed_factor == pytest.approx(2.0)
    assert SpeedProbe().measure() > 0


def test_oltp_point_traced_ledger(capsys):
    code, result, report = _run(capsys, "oltp_point", 1)
    _check_printed(report, result, "oltp_point", BENCH["per_layer"])
    assert code == 0 and result["correct"], report
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["executor.rows_scanned_per_row"] > 1
    assert metrics["sql.parse_us"] > 0 and metrics["wal.append_us"] == 0
    # A PRIMARY KEY gives no access path: a PK point lookup scans its
    # whole table per row returned; an indexed lookup reads one row.
    sections = re.findall(r"\[adhoc:(\w+)\.(\w+)\].*?\(([\d.]+) scanned "
                          r"per row\)", report, re.S)
    assert sections
    for table, column, per_row in sections:
        if PK_TABLES.get(table, ("",))[0] == column:
            assert float(per_row) == TABLE_ROWS[table], table
        else:
            assert float(per_row) == 1.0, (table, column)
    # Per label, layer self times plus the remainder equal op time.
    assert "traced op time: exact" in report and "OFF BY" not in report


def test_crud_durable_traced_ledger(capsys):
    code, result, report = _run(capsys, "crud_durable", 1)
    _check_printed(report, result, "crud_durable", BENCH["per_layer"])
    assert code == 0 and result["correct"], report
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["catalog.fk_check_us"] > 0
    assert metrics["wal.sync_wait_us"] > 0
    assert metrics["wal.commits_per_fsync"] > 0
    assert "traced op time: exact" in report and "OFF BY" not in report


def test_crud_durable_acknowledged_writes_survive_reopen():
    """One client's transaction while the other client has a (read)
    transaction open, as happens all the time in the timed run."""
    workload = CrudDurable(1, run.OUT)
    try:
        workload.setup()
        other = workload.clients[1].session
        other.begin()
        other.query("SELECT SAL FROM EMP WHERE ENO = 1")
        workload.clients[0].transaction(Phase())
        other.commit()
        assert workload.verify() == []
    finally:
        workload.cleanup()


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="engine defect: CacheWriteBack.apply_now emits its deltas after "
           "run_atomic returns, outside the scope activation; with two open "
           "transactions (or none, in auto-commit) they publish directly and "
           "are never WAL-logged, so acknowledged gateway write-through "
           "writes are lost on reopen")
def test_gateway_write_through_beside_open_transaction_survives_reopen(
        tmp_path):
    """Why crud_durable writes ENAME through SQL, not the gateway."""
    path = str(tmp_path / "db")
    engine = Engine(path=path, fsync="group")
    try:
        create_org_schema(engine.catalog, with_indexes=True)
        populate_org(engine.catalog, org_scale(1))
        engine.checkpoint()
        writer, reader = engine.connect(), engine.connect()
        writer.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
        view = ObjectGateway(writer).open("deps_arc", write_through=True)
        target = min(view.XEMP.extent, key=lambda e: e.eno)
        reader.begin()
        reader.query("SELECT SAL FROM EMP WHERE ENO = 1")
        writer.begin()
        target.ename = "renamed"
        writer.commit()
        reader.commit()
    finally:
        engine.close()
    reopened = Engine(path=path, fsync="group")
    try:
        rows = reopened.connect().query(
            f"SELECT ENAME FROM EMP WHERE ENO = {target.eno}").rows
    finally:
        reopened.close()
    assert rows == [("renamed",)]


def test_spec_covers_every_metric_and_layer():
    assert set(SPEC["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    assert set(SPEC["per_layer"]) == {m["name"] for m in BENCH["per_layer"]}
    for workload in SPEC["workloads"].values():
        assert set(workload["end_to_end"]) | set(SPEC["common_end_to_end"]) \
            >= {m["name"] for m in BENCH["end_to_end"]}


def test_corrupted_sqlite_reference_fails_oltp_gate():
    workload = OltpPoint(1)
    try:
        workload.setup()
        workload.run(0.3)
        reference = workload.reference()
        assert workload.verify(reference) == []
        for table in ("DEPT", "EMP", "PROJ", "SKILLS", "PART",
                      "CONNECTION", "EMPSKILLS", "PROJSKILLS"):
            reference.execute(f"DELETE FROM {table}")
        assert workload.verify(reference)
    finally:
        workload.close()


def test_corrupted_oracle_fails_co_extract_gate():
    workload = COExtract(1)
    try:
        workload.setup()
        workload.run(0.3)
        reference = workload.reference()
        assert workload.verify(reference) == []
        reference["DEPS_ARC"]["components"]["XEMP"].pop()
        problems = workload.verify(reference)
        assert any("XEMP" in problem for problem in problems)
    finally:
        workload.close()


def test_corrupted_matview_reference_fails_crud_gate():
    workload = CrudDurable(1, run.OUT)
    try:
        workload.setup()
        reference = workload.reference()
        stream = next(iter(reference.components.values()))
        stream.rows.pop()
        stream.oids.pop()
        problems = workload.verify(reference)
        assert any("differs from a fresh evaluation" in p for p in problems)
    finally:
        workload.cleanup()
