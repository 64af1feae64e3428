"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topology_defaults(self):
        args = build_parser().parse_args(["topology", "ps"])
        assert args.radix == 15


class TestCommands:
    def test_topology_ps(self, capsys):
        assert main(["topology", "ps", "--radix", "9"]) == 0
        out = capsys.readouterr().out
        assert "248 routers" in out
        assert "diameter: 3" in out

    def test_topology_df(self, capsys):
        assert main(["topology", "df", "--a", "4", "--h", "2"]) == 0
        out = capsys.readouterr().out
        assert "36 routers" in out

    def test_topology_hx(self, capsys):
        assert main(["topology", "hx", "--dims", "3x3x3"]) == 0
        assert "27 routers" in capsys.readouterr().out

    def test_design_space(self, capsys):
        assert main(["design-space", "15"]) == 0
        out = capsys.readouterr().out
        assert "1064" in out and "largest" in out

    def test_experiment_eq12(self, capsys):
        assert main(["experiment", "eq12"]) == 0
        assert "8/27" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])

    def test_route(self, capsys):
        assert main(["route", "--radix", "9", "--src", "0", "--dst", "200"]) == 0
        out = capsys.readouterr().out
        assert "hops" in out and "supernode" in out

    def test_route_topology_spec_with_pairs(self, capsys):
        assert main([
            "route", "--topology", "PS-IQ", "--scale", "reduced",
            "--pair", "0", "7", "--pair", "3", "3", "--op", "distance",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 -> 7 in" in out and "3 -> 3 in 0 hops" in out

    def test_route_pairs_file(self, capsys, tmp_path):
        pf = tmp_path / "pairs.txt"
        pf.write_text("# comment\n0 7\n1, 2\n")
        assert main([
            "route", "--topology", "PS-IQ", "--scale", "reduced",
            "--pairs-file", str(pf), "--op", "distance",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 -> 7 in" in out and "1 -> 2 in" in out

    def test_route_out_is_byte_deterministic(self, tmp_path, capsys):
        out_path = tmp_path / "route.json"
        args = [
            "route", "--topology", "PS-IQ", "--scale", "reduced",
            "--pair", "0", "7", "--pair", "5", "9", "--out", str(out_path),
        ]
        assert main(args) == 0
        first = out_path.read_bytes()
        assert main(args) == 0
        assert out_path.read_bytes() == first
        doc = json.loads(first)
        assert doc["schema"] == "repro.route/v1"
        assert doc["pairs"] == [[0, 7], [5, 9]]
        assert len(doc["distances"]) == 2 == len(doc["paths"])
        capsys.readouterr()

    def test_route_paths_match_engine(self, capsys):
        from repro.serve import QueryEngine, ShardRegistry

        registry = ShardRegistry()
        registry.load("PS-IQ", scale="reduced")
        path = QueryEngine(registry).paths("PS-IQ", [[0, 7]])[0]
        assert main([
            "route", "--topology", "PS-IQ", "--scale", "reduced",
            "--pair", "0", "7",
        ]) == 0
        out = capsys.readouterr().out
        for v in path:
            assert f"router {v}" in out

    def test_route_without_pairs_errors(self):
        with pytest.raises(SystemExit):
            main(["route", "--topology", "PS-IQ", "--scale", "reduced"])

    def test_route_unknown_topology_errors(self):
        with pytest.raises(SystemExit):
            main(["route", "--topology", "no-such-net", "--pair", "0", "1"])

    @pytest.mark.parametrize("argv", [
        ["sim", "--drain-cycles", "-2000"],
        ["sim", "--load", "nan"],
        ["faults", "inject", "--measure-cycles", "0"],
        ["faults", "inject", "--load", "-0.5"],
    ])
    def test_packet_sim_rejects_bad_input_in_one_line(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--radix", "7"])
        msg = str(exc.value.code)
        assert msg.startswith("invalid packet-sim input:") and "\n" not in msg

    @pytest.mark.parametrize("argv", [
        ["faults", "inject", "--radix", "7", "--fail-links", "1.5"],
        ["faults", "inject", "--radix", "7", "--degrade-factor", "0.5"],
        ["faults", "inject", "--radix", "7", "--degrade-links", "0.2",
         "--degrade-factor", "inf"],
        ["faults", "inject", "--radix", "7", "--fail-nodes", "100000"],
        ["faults", "inject", "--radix", "7", "--fail-links", "nan"],
        ["sim", "--radix", "7", "--fail-links", "1.5"],
        ["faults", "schedule", "--scale", "reduced", "--fail-links", "1.5"],
        ["faults", "sweep", "--fractions", "0.1,x"],
        ["faults", "sweep", "--fractions", "1.5"],
        ["faults", "sweep", "--fractions", "0,nan"],
    ])
    def test_bad_fault_knobs_rejected_in_one_line(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        msg = str(exc.value.code)
        assert msg.startswith("invalid fault schedule:") and "\n" not in msg

    @pytest.mark.parametrize("pairs_text, argv, prefix", [
        ("0 x\n", ["route", "--pairs-file", "{file}"],
         "{file}:1: expected 'src dst', got '0 x'"),
        ("0 1\n0 1.5\n", ["route", "--pairs-file", "{file}"],
         "{file}:2: expected 'src dst', got '0 1.5'"),
        (None, ["route", "--pairs-file", "{file}"], "cannot read --pairs-file:"),
        (None, ["faults", "sweep", "--load", "-1"], "invalid packet-sim input:"),
        (None, ["topology", "hx", "--dims", "9xa"], "invalid --dims '9xa'"),
        (None, ["topology", "hx", "--dims", "0x3"], "invalid --dims '0x3': "),
        (None, ["faults", "sweep", "--topo", "NOPE"],
         "unknown topology 'NOPE'; options: PS-IQ, PS-Pal,"),
        (None, ["store", "warm", "--topo", "NOPE"],
         "unknown topology 'NOPE'; options: PS-IQ, PS-Pal,"),
    ], ids=["pair-not-int", "pair-float", "pairs-file-missing", "sweep-load",
            "hx-dims", "hx-dims-zero", "sweep-topo", "warm-topo"])
    def test_malformed_input_exits_in_one_line(
        self, tmp_path, pairs_text, argv, prefix
    ):
        path = tmp_path / "pairs.txt"
        if pairs_text is not None:
            path.write_text(pairs_text)
        with pytest.raises(SystemExit) as exc:
            main([arg.replace("{file}", str(path)) for arg in argv])
        msg = str(exc.value.code)
        assert msg.startswith(prefix.replace("{file}", str(path)))
        assert "\n" not in msg

    @pytest.mark.parametrize("experiment, opt, message", [
        ("tab03", 'nmes=["PS-IQ"]', "unknown option 'nmes'; options: names"),
        ("tab03", 'names=["NOPE"]', "unknown topology 'NOPE'; options: PS-IQ,"),
        ("tab03", "names=PS-IQ", "expected a list of topology names, got 'PS-IQ'"),
        ("fig09", 'names=["PS-IQ-x"]', "unknown topology 'PS-IQ-x'"),
        ("fig09", 'patterns=["tornado"]', "unknown pattern 'tornado'; options: uniform,"),
        ("fig10", 'names=["HX"]', "unknown topology 'HX'; options: PS-IQ, PS-Pal, BF, DF, MF"),
        ("fig14_dynamic", 'names=["SF"]', "unknown topology 'SF'"),
        ("fig14_dynamic", "fractions=[0.1,1.5]", "fraction must be a finite number in [0, 1.0], got 1.5"),
        ("fig14_dynamic", "fractions=0.1", "fractions must be a list, got 0.1"),
        ("fig14_dynamic", "load=-1", "load must be a finite number in [0, inf], got -1"),
        ("fig14_dynamic", "load=NaN", "NaN is not a valid option value"),
        ("fig14_dynamic", "load=Infinity", "Infinity is not a valid option value"),
        ("fig14_dynamic", "cycles=[20,40]", "cycles must be three integers"),
        ("fig14_dynamic", "cycles=[20,0,40]", "measure_cycles must be >= 1, got 0"),
    ], ids=["tab03-key", "tab03-name", "tab03-names-str", "fig09-name",
            "fig09-pattern", "fig10-name", "fig14-name", "fig14-fraction",
            "fig14-fractions-float", "fig14-load", "fig14-load-nan",
            "fig14-load-inf", "fig14-cycles-two", "fig14-cycles-zero"])
    def test_run_rejects_bad_opt_in_one_line(
        self, tmp_path, monkeypatch, experiment, opt, message
    ):
        """A malformed ``repro run --opt`` exits in one line while the plan
        is built: no worker starts and no journal is written."""
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        with pytest.raises(SystemExit) as exc:
            main(["run", experiment, "--opt", opt])
        msg = str(exc.value.code)
        assert msg.startswith(f"invalid --opt for {experiment}: {message}")
        assert "\n" not in msg
        assert not runs.exists()

    def test_faults_inject_with_empty_schedule(self, capsys):
        assert main(["faults", "inject", "--radix", "7", "--measure-cycles", "200",
                     "--warmup-cycles", "50", "--drain-cycles", "200"]) == 0
        out = capsys.readouterr().out
        assert "FaultSchedule(0 events, {})" in out and "rungs={}" in out
