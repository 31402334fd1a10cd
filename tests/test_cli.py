"""Tests for the ``repro`` command-line interface.

Every subcommand is exercised through ``main(argv)`` with real files in a
tmp directory, checking both the exit codes and the printed reports.
"""

import pytest

from repro.circuits.bench_format import serialize_bench
from repro.circuits.blif import parse_blif
from repro.circuits.library import handshake, s27
from repro.circuits.parse import serialize_netlist
from repro.cli import main


@pytest.fixture
def s27_bench(tmp_path):
    path = tmp_path / "s27.bench"
    path.write_text(serialize_bench(s27()))
    return str(path)


@pytest.fixture
def handshake_file(tmp_path):
    path = tmp_path / "handshake.net"
    path.write_text(serialize_netlist(handshake(True)))
    return str(path)


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.net"
    path.write_text(serialize_netlist(handshake(False)))
    return str(path)


class TestEngines:
    def test_lists_every_registered_engine(self, capsys):
        from repro.api.registry import engine_names

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in engine_names():
            assert name in out

    def test_shows_capability_flags(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        lines = {
            line.split()[0]: line for line in out.splitlines()[1:] if line
        }
        assert "complete" not in lines["bmc"]
        assert "complete" in lines["itp"]
        assert "composite" in lines["portfolio"]
        assert "variant:reach_aig" in lines["reach_aig_allsat"]
        assert "forward" in lines["itp"]

    def test_lists_pdr_with_its_capabilities(self, capsys):
        # The registry-derived listing must include the PDR engine with
        # its full capability row (complete, trace-producing,
        # constraint-honoring, forward).
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        lines = {
            line.split()[0]: line for line in out.splitlines()[1:] if line
        }
        assert "pdr" in lines
        for flag in ("complete", "trace", "constraints", "forward"):
            assert flag in lines["pdr"], flag

    def test_lists_cnc_engine(self, capsys):
        # The cube-and-conquer engine must appear in the registry-derived
        # listing as a bounded (not complete) forward engine.
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        lines = {
            line.split()[0]: line for line in out.splitlines()[1:] if line
        }
        assert "cnc" in lines
        assert "forward" in lines["cnc"]
        assert "complete" not in lines["cnc"]


class TestInfo:
    def test_info_reports_structure(self, s27_bench, capsys):
        assert main(["info", s27_bench]) == 0
        out = capsys.readouterr().out
        assert "inputs:    4" in out
        assert "latches:   3" in out

    def test_info_missing_file(self, capsys):
        assert main(["info", "/nonexistent/x.bench"]) == 2
        assert "error" in capsys.readouterr().err


class TestConvert:
    def test_bench_to_blif(self, s27_bench, tmp_path, capsys):
        target = tmp_path / "s27.blif"
        assert main(["convert", s27_bench, str(target)]) == 0
        recovered = parse_blif(target.read_text())
        assert recovered.num_latches == 3

    def test_to_native_format(self, s27_bench, tmp_path):
        target = tmp_path / "s27.net"
        assert main(["convert", s27_bench, str(target)]) == 0
        assert "netlist" in target.read_text()


class TestModelCheck:
    def test_proved_property_exit_zero(self, handshake_file, capsys):
        assert main(["mc", handshake_file]) == 0
        assert "proved" in capsys.readouterr().out

    def test_failed_property_exit_one(self, buggy_file, capsys):
        assert main(["mc", buggy_file, "--trace"]) == 1
        out = capsys.readouterr().out
        assert "failed" in out
        assert "counterexample depth" in out
        assert "step 0" in out

    def test_property_flag_overrides(self, s27_bench, capsys):
        # "G17 is invariantly 1" is false for s27 (G17 = NOT G11 toggles).
        code = main(
            ["mc", s27_bench, "--property", "G17", "--method", "reach_bdd"]
        )
        assert code == 1

    def test_no_property_is_an_error(self, s27_bench, capsys):
        assert main(["mc", s27_bench]) == 2
        assert "property" in capsys.readouterr().err

    def test_bmc_method(self, buggy_file, capsys):
        assert main(["mc", buggy_file, "--method", "bmc"]) == 1

    def test_itp_method_proves(self, handshake_file, capsys):
        assert main(["mc", handshake_file, "--method", "itp"]) == 0
        out = capsys.readouterr().out
        assert "engine:  itp" in out
        assert "proved" in out

    def test_itp_method_finds_counterexample(self, buggy_file, capsys):
        assert main(["mc", buggy_file, "--method", "itp", "--trace"]) == 1
        out = capsys.readouterr().out
        assert "failed" in out
        assert "counterexample depth" in out

    def test_pdr_method_proves(self, handshake_file, capsys):
        assert main(["mc", handshake_file, "--method", "pdr"]) == 0
        out = capsys.readouterr().out
        assert "engine:  pdr" in out
        assert "proved" in out

    def test_pdr_method_finds_counterexample(self, buggy_file, capsys):
        assert main(["mc", buggy_file, "--method", "pdr", "--trace"]) == 1
        out = capsys.readouterr().out
        assert "failed" in out
        assert "counterexample depth" in out

    def test_unknown_signal_rejected(self, s27_bench, capsys):
        assert main(["mc", s27_bench, "--property", "nope"]) == 2
        assert "unknown signal" in capsys.readouterr().err

    def test_latch_name_resolves_as_property(self, handshake_file, capsys):
        # Regression: the docstring promises latch names resolve, and
        # grant_a starts at 0, so "invariantly 1" fails immediately.
        assert main(
            ["mc", handshake_file, "--property", "grant_a",
             "--method", "bmc"]
        ) == 1
        assert "failed" in capsys.readouterr().out

    def test_negated_latch_property(self, s27_bench):
        # "!G5" must resolve to the complement of latch G5's edge;
        # reach_bdd decides it either way without erroring.
        code = main(
            ["mc", s27_bench, "--property", "!G5", "--method", "reach_bdd"]
        )
        assert code in (0, 1)


class TestObservabilityFlags:
    def test_trace_path_writes_chrome_trace(
        self, handshake_file, tmp_path, capsys
    ):
        import json

        out = tmp_path / "run.json"
        code = main(
            ["mc", handshake_file, "--method", "pdr", "--trace", str(out)]
        )
        assert code == 0
        assert f"trace: wrote {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        categories = {
            event["cat"]
            for event in doc["traceEvents"]
            if event["ph"] == "X"
        }
        assert {"engine", "frames", "sat"} <= categories

    def test_bare_trace_still_prints_counterexample(
        self, buggy_file, capsys
    ):
        # Backwards compatibility: --trace without a PATH keeps its
        # original meaning and never writes a file.
        assert main(["mc", buggy_file, "--trace"]) == 1
        out = capsys.readouterr().out
        assert "step 0" in out
        assert "trace: wrote" not in out

    def test_report_prints_summary(self, handshake_file, capsys):
        code = main(["mc", handshake_file, "--method", "pdr", "--report"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run report: pdr -> proved" in out
        assert "phases:" in out

    def test_report_path_writes_json(
        self, handshake_file, tmp_path, capsys
    ):
        import json

        path = tmp_path / "report.json"
        code = main(
            ["mc", handshake_file, "--method", "pdr",
             "--report", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["engine"] == "pdr"
        assert doc["status"] == "proved"
        assert doc["phases"]

    def test_mc_stats_flag_prints_to_stderr(self, handshake_file, capsys):
        assert main(
            ["mc", handshake_file, "--method", "pdr", "--stats"]
        ) == 0
        err = capsys.readouterr().err
        assert "sat_calls" in err

    def test_portfolio_stats_flag_prints_to_stderr(
        self, handshake_file, capsys
    ):
        code = main(
            ["portfolio", handshake_file, "--timeout", "10", "--stats"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "problems" in err

    def test_tracing_disabled_after_cli_run(self, handshake_file, tmp_path):
        from repro import obs

        main(
            ["mc", handshake_file, "--method", "pdr",
             "--trace", str(tmp_path / "t.json")]
        )
        assert not obs.is_enabled()


class TestQuantify:
    def test_quantify_reports_sizes(self, s27_bench, capsys):
        code = main(
            ["quantify", s27_bench, "--output", "G17", "--vars", "G0,G1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quantified:" in out
        assert "AND nodes" in out

    def test_quantify_preset_and_schedule(self, s27_bench, capsys):
        code = main(
            [
                "quantify", s27_bench, "--output", "G17",
                "--vars", "G0", "--preset", "shannon",
                "--schedule", "static",
            ]
        )
        assert code == 0

    def test_quantify_prints_dont_care_checks(self, s27_bench, capsys):
        code = main(
            [
                "quantify", s27_bench, "--output", "G17",
                "--vars", "G0,G1", "--preset", "full",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "\ninput_dc_checks: " in out
        assert "\nmerge_sat_checks: " in out
        # A replacement whose difference folds to FALSE needs no SAT
        # check; it is counted, and printed, as trivially valid.
        assert "\ninput_dc_trivial: " in out

    def test_quantify_unknown_var(self, s27_bench, capsys):
        code = main(
            ["quantify", s27_bench, "--output", "G17", "--vars", "zz"]
        )
        assert code == 2


class TestFraigCommand:
    def test_fraig_reports_reduction(self, s27_bench, capsys):
        assert main(["fraig", s27_bench]) == 0
        assert "size:" in capsys.readouterr().out

    def test_fraig_rejects_removed_engine_option(self, s27_bench, capsys):
        # fraig has one SAT back end; the old --engine switch is a usage
        # error, not silently ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(["fraig", s27_bench, "--engine", "circuit"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestAtpgCommand:
    def test_atpg_campaign(self, s27_bench, capsys):
        assert main(["atpg", s27_bench, "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "fault list:" in out
        assert "coverage" in out
        assert "deterministic pass" in out


class TestResolveSignal:
    def test_latch_lookup_returns_latch_edge(self):
        from repro.cli import _resolve_signal

        netlist = handshake(True)
        by_name = {latch.name: latch for latch in netlist.latches}
        edge = _resolve_signal(netlist, "grant_a")
        assert edge == 2 * by_name["grant_a"].node
        assert _resolve_signal(netlist, "!grant_a") == edge ^ 1


class TestPortfolioCommand:
    def test_all_proved_exit_zero(self, handshake_file, capsys):
        assert main(["portfolio", handshake_file, "--timeout", "10"]) == 0
        out = capsys.readouterr().out
        assert "proved" in out
        assert "winners:" in out

    def test_any_failed_exit_one(self, handshake_file, buggy_file, capsys):
        code = main(
            ["portfolio", handshake_file, buggy_file, "--timeout", "10"]
        )
        assert code == 1
        assert "failed" in capsys.readouterr().out

    def test_all_unknown_exit_three(self, handshake_file, capsys):
        # bmc alone cannot prove a safe design.
        code = main(
            ["portfolio", handshake_file, "--engines", "bmc",
             "--timeout", "10"]
        )
        assert code == 3
        assert "unknown" in capsys.readouterr().out

    def test_cache_file_round_trip(self, handshake_file, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        args = ["portfolio", handshake_file, "--cache", str(cache),
                "--timeout", "10"]
        assert main(args) == 0
        assert cache.exists()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "yes" in out.splitlines()[-3]  # served from cache

    def test_no_property_is_an_error(self, s27_bench, capsys):
        assert main(["portfolio", s27_bench]) == 2
        assert "property" in capsys.readouterr().err

    def test_property_flag_applies_to_files(self, s27_bench, capsys):
        code = main(
            ["portfolio", s27_bench, "--property", "G17",
             "--engines", "bmc,reach_bdd", "--timeout", "10"]
        )
        assert code == 1

    def test_unknown_engine_rejected(self, handshake_file, capsys):
        # The registry rejects unknown engines up front (usage error),
        # instead of spawning a worker that crashes into UNKNOWN.
        code = main(
            ["portfolio", handshake_file, "--engines", "warp_drive"]
        )
        assert code == 2
        assert "unknown engine" in capsys.readouterr().err


class TestMinimizeFlag:
    def test_minimize_reports_care_ratio(self, buggy_file, capsys):
        assert main(["mc", buggy_file, "--minimize", "--trace"]) == 1
        out = capsys.readouterr().out
        assert "minimized:" in out
        assert "matter" in out


class TestEnginesJson:
    # Satellite: `repro engines --json` is the machine-readable registry
    # remote clients (and the service's /engines endpoint) rely on, so
    # its schema is pinned here.
    CAPABILITY_KEYS = {
        "produces_trace", "complete", "supports_constraints",
        "quick", "composite", "variant_of",
    }

    def test_json_registry_schema(self, capsys):
        import json

        from repro.api.registry import engine_names

        assert main(["engines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        catalog = {entry["name"]: entry for entry in payload["engines"]}
        assert set(catalog) == set(engine_names())
        for entry in catalog.values():
            assert set(entry) == {
                "name", "summary", "direction", "depth_field",
                "capabilities", "options",
            }
            assert set(entry["capabilities"]) == self.CAPABILITY_KEYS
            assert entry["direction"] in ("backward", "forward", "any")
            assert isinstance(entry["options"], list)
        assert catalog["bmc"]["capabilities"]["complete"] is False
        assert catalog["portfolio"]["capabilities"]["composite"] is True
        assert (
            catalog["reach_aig_allsat"]["capabilities"]["variant_of"]
            == "reach_aig"
        )
        assert "max_depth" in catalog["bmc"]["options"]


class TestServiceCLI:
    def test_submit_wait_proves_offline(
        self, handshake_file, tmp_path, capsys
    ):
        store = str(tmp_path / "svc.sqlite")
        code = main(
            ["submit", handshake_file, "--store", store,
             "--method", "pdr", "--wait"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted" in out
        assert '"verdict": "proved"' in out

    def test_submit_wait_failed_property_exit_one(
        self, buggy_file, tmp_path, capsys
    ):
        store = str(tmp_path / "svc.sqlite")
        code = main(
            ["submit", buggy_file, "--store", store,
             "--method", "bmc", "--wait"]
        )
        assert code == 1
        assert '"verdict": "failed"' in capsys.readouterr().out

    def test_submit_without_property_is_usage_error(
        self, s27_bench, tmp_path, capsys
    ):
        code = main(
            ["submit", s27_bench, "--store", str(tmp_path / "s.sqlite")]
        )
        assert code == 2
        assert "property" in capsys.readouterr().err

    def test_jobs_table_and_json(self, handshake_file, tmp_path, capsys):
        import json

        store = str(tmp_path / "svc.sqlite")
        main(["submit", handshake_file, "--store", store,
              "--method", "pdr", "--name", "ok", "--wait"])
        capsys.readouterr()
        assert main(["jobs", "--store", store]) == 0
        table = capsys.readouterr().out
        assert "done" in table and "proved" in table and "ok" in table
        assert main(["jobs", "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"][0]["state"] == "done"
        assert payload["jobs"][0]["verdict"] == "proved"
        assert main(["jobs", "--store", store, "--state", "failed"]) == 0
        assert "no jobs" in capsys.readouterr().out


class TestTelemetryCLI:
    """``repro jobs --follow`` and ``repro top`` against a live server."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.svc.server import VerificationServer

        with VerificationServer(
            tmp_path / "svc.sqlite",
            workers=1,
            worker_processes=False,
            worker_poll=0.02,
            sse_poll=0.02,
            trace_jobs=True,
        ) as server:
            yield server

    def _submit(self, server, netlist_text: str, method: str) -> int:
        import json
        import urllib.request

        request = urllib.request.Request(
            server.url + "/submit",
            data=json.dumps(
                {"netlist": netlist_text, "method": method}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=15) as response:
            return json.loads(response.read())["job_id"]

    def test_jobs_follow_streams_to_verdict(self, server, capsys):
        job_id = self._submit(
            server, serialize_netlist(handshake(True)), "pdr"
        )
        code = main(
            ["jobs", "--url", server.url, "--follow", str(job_id)]
        )
        out = capsys.readouterr().out
        assert code == 0  # proved
        assert "submitted" in out
        assert "job_finished" in out

    def test_jobs_follow_failed_property_exit_one(self, server, capsys):
        job_id = self._submit(
            server, serialize_netlist(handshake(False)), "bmc"
        )
        code = main(
            ["jobs", "--url", server.url, "--follow", str(job_id)]
        )
        assert code == 1
        assert "job_finished" in capsys.readouterr().out

    def test_follow_requires_url(self, tmp_path, capsys):
        store = str(tmp_path / "svc.sqlite")
        assert main(["jobs", "--store", store, "--follow", "1"]) == 2
        assert "--url" in capsys.readouterr().err

    def test_top_renders_dashboard(self, server, capsys):
        job_id = self._submit(
            server, serialize_netlist(handshake(True)), "pdr"
        )
        main(["jobs", "--url", server.url, "--follow", str(job_id)])
        capsys.readouterr()
        code = main(
            ["top", "--url", server.url, "--iterations", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "queue depth" in out
        assert "done=1" in out
        assert "proved" in out
