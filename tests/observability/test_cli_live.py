"""CLI surface for the live-observability flags.

Pins the new ``repro`` wiring: ``scenario run`` takes the same sink
flags as ``run`` (``--metrics-out``/``--trace-out``/``--log-level``),
its ``--json`` line embeds the final metrics snapshot, ``--prom-port``
serves a scrapable endpoint for the duration of the run, ``--profile``
prints the span flame, and ``--watch``/``scenario watch`` stream one
window row per closed window on a non-tty stdout.
"""

import json
import logging

from repro.cli import main
from repro.observability import read_trace
from repro.observability.metrics import NULL_REGISTRY, get_metrics
from repro.observability.spans import NULL_PROFILER, get_profiler

SCENARIO = ["scenario", "run", "--scenario", "static-drain", "--seed", "3"]


class TestScenarioSinkFlags:
    def test_metrics_and_trace_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        code = main(
            SCENARIO
            + [
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
                "--snapshot-every", "4",
            ]
        )
        assert code == 0
        snap = json.loads(metrics_path.read_text())
        assert "scenario_acked_total" in snap
        trace = read_trace(trace_path)
        assert trace.of_kind("scenario")
        assert trace.of_kind("scenario_window")
        # Sinks are torn down: the process defaults are null again.
        assert get_metrics() is NULL_REGISTRY

    def test_json_embeds_metrics_snapshot(self, capsys):
        assert main(SCENARIO + ["--json"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(line)
        for key in ("throughput", "drop_rate", "latency_p50", "acked"):
            assert key in payload
        assert payload["metrics"]["scenario_acked_total"]["kind"] == "counter"

    def test_log_level_accepted_on_subcommand(self, capsys):
        root_level = logging.getLogger("repro").level
        try:
            assert main(SCENARIO + ["--log-level", "warning"]) == 0
        finally:
            logging.getLogger("repro").setLevel(root_level)


class TestPromPortAndProfile:
    def test_prom_port_announces_endpoint(self, capsys):
        assert main(SCENARIO + ["--prom-port", "0"]) == 0
        err = capsys.readouterr().err
        assert "http://127.0.0.1:" in err and "/metrics" in err

    def test_profile_prints_flame_and_restores_default(self, capsys):
        assert main(SCENARIO + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "protocol.round" in out
        assert get_profiler() is NULL_PROFILER

    def test_run_profile_covers_protocol_spans(self, capsys):
        code = main(
            ["run", "e_pred", "--trials", "1", "--seed", "1", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "protocol.round" in out

    def test_profile_writes_span_record_to_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        code = main(
            SCENARIO + ["--profile", "--trace-out", str(trace_path)]
        )
        assert code == 0
        records = read_trace(trace_path).of_kind("span_profile")
        assert len(records) == 1
        assert "protocol.round" in records[0]["spans"]


class TestWatch:
    def test_watch_streams_window_rows(self, capsys):
        assert main(SCENARIO + ["--watch", "--snapshot-every", "2"]) == 0
        out = capsys.readouterr().out
        # Non-tty: one stat row per window, not the ANSI dashboard.
        assert "window" in out and "thr" in out

    def test_scenario_watch_alias(self, capsys):
        assert main(["scenario", "watch", "--scenario", "static-drain", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.strip()
