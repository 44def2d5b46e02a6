"""Tests for the experiment catalogue and the `python -m repro.bench` CLI."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.bench.__main__ import main as _bench_cli
from repro.bench.figures import (
    CATALOGUE,
    Experiment,
    experiment_ids,
    run_experiment,
)


class TestCatalogue:
    def test_every_paper_artifact_has_a_generator(self):
        ids = set(experiment_ids())
        expected_figs = {f"fig{n:02d}" for n in range(2, 19) if n != 1}
        expected_tabs = {"tab03", "tab04", "tab06", "tab07"}
        assert expected_figs <= ids
        assert expected_tabs <= ids
        assert {"ablation_bounce", "ablation_batch", "ablation_throttle"} <= ids
        assert "ext_reduce" in ids

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_catalogue_entries_are_callables(self):
        for eid, fn in CATALOGUE.items():
            assert callable(fn), eid

    def test_cheap_experiment_roundtrip(self):
        exp = run_experiment("tab03", quick=True)
        assert isinstance(exp, Experiment)
        assert exp.id == "tab03"
        assert exp.tables and exp.data
        out = exp.render()
        assert out.startswith("### tab03")
        assert "syscall" in out

    def test_experiment_render_contains_all_tables(self):
        exp = run_experiment("fig04", quick=True)
        out = exp.render()
        assert "lock" in out and "copy" in out


class TestCLI:
    def test_list(self, capsys):
        assert _bench_cli(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "tab06" in out

    def test_no_args_lists(self, capsys):
        assert _bench_cli([]) == 0
        assert "fig02" in capsys.readouterr().out

    def test_run_one(self, capsys):
        assert _bench_cli(["tab03"]) == 0
        out = capsys.readouterr().out
        assert "regenerated" in out
        assert "T4 copy" in out

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            _bench_cli(["fig99"])


@pytest.mark.slow
def test_bench_all_peak_rss_under_one_gib():
    """Every quick-axes experiment in one process stays small: timing-only
    nodes allocate no buffer bytes, so ``bench all`` must not drift back
    to the multi-GiB peaks that used to get it OOM-killed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.bench", "all"],
        stdout=subprocess.DEVNULL,
        env=env,
    )
    watchdog = threading.Timer(900, proc.kill)
    watchdog.start()
    try:
        # wait4 reports the child's own rusage (its peak RSS, including any
        # sweep workers it reaped), not the max over every child pytest ran
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    assert proc.returncode == 0
    peak_mib = usage.ru_maxrss / 1024  # Linux reports KiB
    assert peak_mib < 1024, f"bench all peaked at {peak_mib:.0f} MiB"
