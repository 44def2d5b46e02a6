"""Smoke tests for the wall-clock perf suite (``python -m repro.bench perf``).

These never assert on absolute speed — CI hosts vary wildly — only on the
payload shape the suite emits and on the regression-check logic CI uses.
"""

import json

import pytest

from repro.bench import perfsuite


@pytest.fixture(scope="module")
def result():
    return perfsuite.run_suite(smoke=True, repeats=1)


def test_payload_shape(result):
    assert result["schema"] == perfsuite.SCHEMA
    assert result["smoke"] is True
    engine = result["engine"]
    assert set(engine) == {
        "zero_delay",
        "timer_heap",
        "mutex_uncontended",
        "mutex_contended",
        "spawn_join",
        "overall_events_per_sec",
    }
    for name, r in engine.items():
        if name == "overall_events_per_sec":
            assert r > 0
            continue
        assert r["events"] > 0
        assert r["wall_s"] > 0
        assert r["events_per_sec"] == pytest.approx(
            r["events"] / r["wall_s"], rel=1e-3
        )


def test_fig_slices_report_simulated_and_wall_time(result):
    assert result["fig03"], "smoke fig03 slice must not be empty"
    for r in result["fig03"].values():
        assert r["latency_us"] > 0
        assert r["wall_s"] >= 0
    assert result["fig07"], "smoke fig07 slice must not be empty"
    for r in result["fig07"].values():
        assert r["latency_us"] > 0
        assert r["sim_events"] > 0


def test_payload_is_json_serialisable(result):
    assert json.loads(json.dumps(result)) == result


def test_sweep_section_reports_fresh_and_warm_rates(result):
    assert result["sweep"], "smoke sweep section must not be empty"
    for name, r in result["sweep"].items():
        assert r["points"] > 0
        for mode in ("fresh", "warm"):
            assert r[mode]["wall_s"] > 0
            assert r[mode]["points_per_sec"] == pytest.approx(
                r["points"] / r[mode]["wall_s"], rel=1e-2
            )
        assert r["warm_speedup"] == pytest.approx(
            r["fresh"]["wall_s"] / r["warm"]["wall_s"], rel=1e-2
        )


def _payload(sweep=None, **ev_per_sec):
    payload = {
        "schema": perfsuite.SCHEMA,
        "engine": {
            name: {"events": 1000, "wall_s": 0.1, "events_per_sec": v}
            for name, v in ev_per_sec.items()
        },
    }
    if sweep is not None:
        payload["sweep"] = {
            name: {
                "points": 9,
                "fresh": {"wall_s": 1.0, "points_per_sec": pts / 1.5},
                "warm": {"wall_s": 1.0, "points_per_sec": pts},
                "warm_speedup": 1.5,
            }
            for name, pts in sweep.items()
        }
    return payload


def test_check_regression_passes_within_factor():
    base = _payload(zero_delay=1000.0, timer_heap=1000.0)
    cur = _payload(zero_delay=600.0, timer_heap=2000.0)
    assert perfsuite.check_regression(cur, base, factor=2.0) == []


def test_check_regression_flags_gross_slowdown():
    base = _payload(zero_delay=1000.0, timer_heap=1000.0)
    cur = _payload(zero_delay=400.0, timer_heap=1000.0)
    failures = perfsuite.check_regression(cur, base, factor=2.0)
    assert len(failures) == 1
    assert "zero_delay" in failures[0]


def test_check_regression_ignores_benches_missing_from_baseline():
    base = _payload(zero_delay=1000.0)
    cur = _payload(zero_delay=1000.0, timer_heap=1.0)
    assert perfsuite.check_regression(cur, base) == []


def test_check_sections_flags_sweep_regression_separately():
    base = _payload(zero_delay=1000.0, sweep={"fig07_scatter_knl": 600.0})
    cur = _payload(zero_delay=1000.0, sweep={"fig07_scatter_knl": 100.0})
    sections = perfsuite.check_sections(cur, base, factor=2.0)
    assert sections["engine"] == []
    assert len(sections["sweep"]) == 1
    assert "fig07_scatter_knl" in sections["sweep"][0]
    assert "warm points/s" in sections["sweep"][0]


def test_convoy_section_shape(result):
    convoy = result["convoy"]
    assert set(convoy) == {f"c{c}" for c in perfsuite.CONVOY_READERS}
    for r in convoy.values():
        assert r["events"] > 0
        assert r["wall_s"] > 0
        # wall_s is rounded to 1us; smoke convoy runs are sub-millisecond,
        # so recomputing the rate from it is only ~1e-3-accurate
        assert r["events_per_sec"] == pytest.approx(
            r["events"] / r["wall_s"], rel=5e-3
        )


def test_shape_sections_time_untraced_and_traced(result):
    for shape in ("ring", "tree", "pairwise"):
        sec = result[shape]
        assert set(sec) == {
            f"p{p}{suffix}"
            for p in perfsuite.SHAPE_PROCS
            for suffix in ("", "_traced")
        }
        for r in sec.values():
            assert r["events"] > 0
            assert r["events_per_sec"] == pytest.approx(
                r["events"] / r["wall_s"], rel=5e-3
            )


def test_fig_walls_time_the_default_path_only(result):
    for fig in ("fig09", "fig10"):
        assert fig in perfsuite.GATED_SECTIONS
        wall = result[fig]["wall"]
        assert set(wall) == {
            "points", "events", "events_per_sec",
            "wall_s", "repeats", "wall_s_all", "spread_pct",
        }
        assert wall["points"] == len(perfsuite.FIG_WALL_POINTS_SMOKE)
        assert wall["events"] > 0
        assert wall["events_per_sec"] == pytest.approx(
            wall["events"] / wall["wall_s"], rel=5e-3
        )


def test_xpmem_section_shape(result):
    xp = result["xpmem"]
    assert set(xp) == {f"w{c}" for c in perfsuite.XPMEM_READERS} | {"crossover"}
    for name, r in xp.items():
        if name == "crossover":
            continue
        assert r["events"] > 0
        assert r["wall_s"] > 0
        assert r["events_per_sec"] == pytest.approx(
            r["events"] / r["wall_s"], rel=5e-3
        )
    for arch in ("knl", "broadwell", "power8"):
        cx = xp["crossover"][arch]
        # a mapped window must cost something up front and then beat the
        # per-round pin, so a finite payoff point always exists
        assert cx["map_cost_us"] > 0
        assert cx["per_copy_saving_us"] > 0
        assert cx["crossover_rounds"] >= 1


def test_serve_section_shape(result):
    serve = result["serve"]
    assert set(serve) == {"compile", "scalar", "batch"}
    c = serve["compile"]
    assert c["rows"] > 0
    assert c["breakpoints"] >= c["rows"]  # every row has at least break 1
    assert c["wall_s"] > 0
    # compile is a build-time cost: it must never carry a rate the
    # events/sec gate would compare
    assert "events_per_sec" not in c
    for key in ("scalar", "batch"):
        r = serve[key]
        assert r["queries"] > 0
        assert r["events_per_sec"] == r["queries_per_sec"]
        assert r["queries_per_sec"] == pytest.approx(
            r["queries"] / r["wall_s"], rel=5e-3
        )
    assert serve["batch"]["backend"] in ("numpy", "scalar")


def test_serve_section_is_gated():
    assert "serve" in perfsuite.GATED_SECTIONS
    base = {"schema": perfsuite.SCHEMA, "engine": {},
            "serve": {"scalar": {"events_per_sec": 900_000.0},
                      "batch": {"events_per_sec": 9_000_000.0}}}
    cur = {"schema": perfsuite.SCHEMA, "engine": {},
           "serve": {"scalar": {"events_per_sec": 200_000.0},
                     "batch": {"events_per_sec": 8_000_000.0},
                     "compile": {"wall_s": 1.0, "rows": 7}}}
    sections = perfsuite.check_sections(cur, base)
    assert len(sections["serve"]) == 1
    assert "scalar" in sections["serve"][0]


def test_sched_section_shape(result):
    sched = result["sched"]
    assert set(sched) == {"serial_warm", "sched", "sched_cached"}
    for key in ("serial_warm", "sched", "sched_cached"):
        r = sched[key]
        assert r["points"] > 0
        assert r["events"] > 0
        assert r["wall_s"] > 0
        assert r["events_per_sec"] == pytest.approx(
            r["events"] / r["wall_s"], rel=1e-2
        )
        assert r["points_per_sec"] == pytest.approx(
            r["points"] / r["wall_s"], rel=1e-2
        )
    # all three legs run the same points on the same event streams
    assert (
        sched["serial_warm"]["events"]
        == sched["sched"]["events"]
        == sched["sched_cached"]["events"]
    )
    assert sched["sched"]["chunks"] > 0
    assert sched["sched"]["steals"] >= 0
    # the warm leg must serve every point from the sharded cache
    assert sched["sched_cached"]["cache_hits"] == sched["sched_cached"]["points"]
    for key in ("sched", "sched_cached"):
        assert sched[key]["speedup_vs_serial_warm"] > 0


def test_sched_section_is_gated():
    assert "sched" in perfsuite.GATED_SECTIONS
    base = {"schema": perfsuite.SCHEMA, "engine": {},
            "sched": {"serial_warm": {"events_per_sec": 90_000.0},
                      "sched_cached": {"events_per_sec": 900_000.0}}}
    cur = {"schema": perfsuite.SCHEMA, "engine": {},
           "sched": {"serial_warm": {"events_per_sec": 80_000.0},
                     "sched_cached": {"events_per_sec": 200_000.0}}}
    sections = perfsuite.check_sections(cur, base)
    assert len(sections["sched"]) == 1
    assert "sched_cached" in sections["sched"][0]


def test_sched_profiler_cli_emits_worker_timeline(tmp_path, capsys):
    from repro.bench import schedprof

    out = tmp_path / "prof.json"
    assert schedprof.main(["--profile", "--out", str(out)]) == 0
    capsys.readouterr()  # drop the "wrote ..." line
    payload = json.loads(out.read_text())
    assert payload["slice"] == "mixed"
    assert payload["points"] == 15
    assert payload["chunks"] == len(payload["chunk_sizes"])
    assert sum(payload["chunk_sizes"]) == payload["points"]
    timeline = payload["workers_timeline"]
    assert timeline
    assert sum(w["points_run"] for w in timeline.values()) == payload["points"]
    assert (
        sum(w["steals"] for w in timeline.values()) == payload["steals"]
    )
    for w in timeline.values():
        assert len(w["chunks"]) == w["chunks_run"]
        for rec in w["chunks"]:
            assert rec["end_s"] >= rec["start_s"]
        assert w["idle_s"] >= 0
        assert w["busy_s"] > 0
    # without --profile the raw per-chunk records are dropped
    assert schedprof.main(["--nosteal", "--slice", "fig07"]) == 0
    slim = json.loads(capsys.readouterr().out)
    assert slim["steals"] == 0
    assert slim["points"] == 9
    assert all("chunks" not in w for w in slim["workers_timeline"].values())


def test_xpmem_section_is_gated():
    assert "xpmem" in perfsuite.GATED_SECTIONS
    base = {"schema": perfsuite.SCHEMA, "engine": {},
            "xpmem": {"w8": {"events_per_sec": 9000.0}}}
    cur = {"schema": perfsuite.SCHEMA, "engine": {},
           "xpmem": {"w8": {"events_per_sec": 2000.0},
                     "crossover": {"knl": {"map_cost_us": 1.0}}}}
    sections = perfsuite.check_sections(cur, base)
    assert len(sections["xpmem"]) == 1
    assert "w8" in sections["xpmem"][0]


def _gated_payload(convoy=None, fig07=None, **ev_per_sec):
    payload = _payload(**ev_per_sec)
    if convoy is not None:
        payload["convoy"] = {
            name: {"events": 1000, "wall_s": 0.1, "events_per_sec": v}
            for name, v in convoy.items()
        }
    if fig07 is not None:
        payload["fig07"] = {
            name: {
                "latency_us": 1.0,
                "sim_events": 1000,
                "wall_s": 0.1,
                "events_per_sec": v,
            }
            for name, v in fig07.items()
        }
    return payload


def test_gated_sections_use_gate_factor():
    base = _gated_payload(convoy={"c8": 9000.0}, fig07={"parallel_read/262144": 9000.0})
    # 2.5x slower: would fail a 2x gate, passes the 3x gate
    cur = _gated_payload(convoy={"c8": 3600.0}, fig07={"parallel_read/262144": 3600.0})
    sections = perfsuite.check_sections(cur, base)
    assert sections["convoy"] == []
    assert sections["fig07"] == []
    # 4x slower: fails
    cur = _gated_payload(convoy={"c8": 2000.0}, fig07={"parallel_read/262144": 9000.0})
    sections = perfsuite.check_sections(cur, base)
    assert len(sections["convoy"]) == 1
    assert "c8" in sections["convoy"][0]
    assert sections["fig07"] == []


def test_gated_sections_skip_missing_points():
    base = _gated_payload(convoy={"c8": 9000.0})
    cur = _gated_payload(convoy={"c64": 1.0}, fig07={"x/1": 1.0})
    sections = perfsuite.check_sections(cur, base)
    assert sections["convoy"] == []
    assert sections["fig07"] == []


def test_check_sections_passes_sweep_within_factor_and_skips_missing():
    base = _payload(zero_delay=1000.0, sweep={"fig07_scatter_knl": 600.0})
    cur = _payload(
        zero_delay=1000.0,
        sweep={"fig07_scatter_knl": 350.0, "new_slice_not_in_baseline": 1.0},
    )
    sections = perfsuite.check_sections(cur, base, factor=2.0)
    assert sections == {"engine": [], "sweep": []}


def test_summary_lines_one_per_section():
    cur = _payload(zero_delay=1000.0, sweep={"fig07_scatter_knl": 600.0})
    cur["engine"]["overall_events_per_sec"] = 123456.0
    sections = {"engine": [], "sweep": ["fig07_scatter_knl: slow"]}
    lines = perfsuite._summary_lines(cur, sections)
    assert len(lines) == 2
    assert lines[0].startswith("perf engine: PASS")
    assert "123,456 events/sec" in lines[0]
    assert lines[1].startswith("perf sweep: FAIL")
    assert "fig07_scatter_knl 600.0 pts/s" in lines[1]
    assert "1 regression(s)" in lines[1]


def test_step_summary_written_when_env_set(tmp_path, monkeypatch):
    path = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(path))
    perfsuite._write_step_summary(["perf engine: PASS — fast"])
    perfsuite._write_step_summary(["perf sweep: PASS — faster"])
    assert path.read_text() == (
        "- perf engine: PASS — fast\n- perf sweep: PASS — faster\n"
    )
    monkeypatch.delenv("GITHUB_STEP_SUMMARY")
    perfsuite._write_step_summary(["never written"])
    assert "never written" not in path.read_text()


def test_cli_writes_output_and_self_check_passes(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert perfsuite.main(["--smoke", "--repeats", "1", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["schema"] == perfsuite.SCHEMA
    # a run checked against itself can never regress
    assert (
        perfsuite.main(
            ["--smoke", "--repeats", "1", "--out", str(out), "--check", str(out)]
        )
        == 0
    )
    assert "no >3x regression in gated sections" in capsys.readouterr().out
