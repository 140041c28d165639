"""End-to-end smoke tests covering every ``fuseflow`` subcommand.

Each test drives :func:`repro.cli.main` exactly as a shell invocation
would (argv in, exit code out, stdout checked), so argument wiring,
defaults, and output formatting are all exercised — including the sweep
verbs and ``compile --diagnostics``.  One test additionally goes through a
real subprocess to cover the ``python -m repro.cli`` entry path.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main

SMALL = ["--nodes", "24", "--density", "0.1"]


class TestRun:
    def test_run_each_model(self, capsys):
        for model, extra in (
            ("gcn", SMALL),
            ("graphsage", SMALL),
            ("sae", ["--nodes", "16"]),
            ("gpt3", ["--seq-len", "16", "--d-model", "8", "--block", "4"]),
        ):
            code = cli_main(["run", "--model", model, "--fusion", "partial", *extra])
            out = capsys.readouterr().out
            assert code == 0, f"{model}: {out}"
            assert "cycles" in out and "max |err|" in out

    def test_run_with_machine_and_par(self, capsys):
        code = cli_main(
            ["run", "--model", "gcn", *SMALL, "--machine", "fpga",
             "--fusion", "partial", "--par", "i=2"]
        )
        assert code == 0

    def test_bad_par_spec_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--model", "gcn", *SMALL, "--par", "nonsense"])


class TestSimulate:
    def test_simulate_basic(self, capsys):
        code = cli_main(["simulate", "--model", "gcn", *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        assert "cycles" in out and "tokens" in out
        assert "busiest" not in out

    def test_simulate_profile_lists_busiest_nodes(self, capsys):
        code = cli_main(
            ["simulate", "--model", "gcn", *SMALL, "--fusion", "full",
             "--profile", "--top", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "top 5 busiest nodes" in out
        assert "util%" in out
        # Rows name region/node and the primitive.
        assert "scan(" in out or "alu(" in out or "array(" in out

    def test_simulate_mode_flags(self, capsys):
        code = cli_main(
            ["simulate", "--model", "sae", "--nodes", "16", "--profile",
             "--backend", "interp", "--no-sim-cache", "--debug-streams"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "busiest" in out
        assert "backend    : interp" in out

    def test_simulate_hierarchy_reports_per_level_traffic(self, capsys):
        code = cli_main(
            ["simulate", "--model", "gcn", *SMALL, "--fusion", "unfused",
             "--hierarchy", "fpga-small", "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fpga-small" in out
        assert "sram bytes" in out and "spill/fill" in out
        assert "memory traffic per region" in out

    def test_simulate_unknown_hierarchy_exits(self):
        with pytest.raises(SystemExit, match="unknown hierarchy"):
            cli_main(
                ["simulate", "--model", "gcn", *SMALL, "--hierarchy", "hbm9"]
            )


class TestSweepVerbs:
    def test_run_resume_report_cycle(self, capsys, tmp_path):
        out_path = str(tmp_path / "sweep.jsonl")

        code = cli_main(
            ["sweep", "run", *SMALL, "--workers", "2", "--out", out_path,
             "--name", "smoke"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "12 point(s): 12 ran" in out
        assert "speedup" in out and "best point" in out

        code = cli_main(["sweep", "resume", "--out", out_path, "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 ran" in out and "12 resumed from store" in out

        json_path = str(tmp_path / "report.json")
        code = cli_main(
            ["sweep", "report", "--out", out_path, "--json", json_path]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "best point" in out
        with open(json_path) as fh:
            summary = json.load(fh)
        assert summary["points_ok"] == 12 and summary["verified"] is True

    def test_run_with_hierarchies_axis(self, capsys, tmp_path):
        out_path = str(tmp_path / "hier.jsonl")
        code = cli_main(
            ["sweep", "run", *SMALL, "--models", "gcn", "--machines", "rda",
             "--schedules", "unfused,full", "--hierarchies",
             "flat,fpga-small", "--workers", "1", "--out", out_path,
             "--name", "hier-smoke"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 point(s): 4 ran" in out
        assert "fpga-small" in out
        # Speedup groups keep hierarchies separate.
        assert "gcn/synthetic/rda/fpga-small" in out

    def test_run_refuses_existing_out(self, capsys, tmp_path):
        out_path = str(tmp_path / "sweep.jsonl")
        assert cli_main(
            ["sweep", "run", *SMALL, "--models", "sae", "--machines", "rda",
             "--workers", "1", "--out", out_path, "--quiet"]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="already exists"):
            cli_main(
                ["sweep", "run", *SMALL, "--models", "sae", "--machines",
                 "rda", "--workers", "1", "--out", out_path, "--quiet"]
            )
        # --force overwrites.
        assert cli_main(
            ["sweep", "run", *SMALL, "--models", "sae", "--machines", "rda",
             "--workers", "1", "--out", out_path, "--quiet", "--force"]
        ) == 0

    def test_report_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no results file"):
            cli_main(["sweep", "report", "--out", str(tmp_path / "nope.jsonl")])

    def test_report_headerless_file_exits(self, tmp_path):
        path = str(tmp_path / "headerless.jsonl")
        with open(path, "w") as fh:
            fh.write('{"type": "result", "point_id": "a", "status": "ok"}\n')
        with pytest.raises(SystemExit, match="no spec header"):
            cli_main(["sweep", "report", "--out", path])

    def test_run_from_spec_file(self, capsys, tmp_path):
        from repro.sweep import SweepSpec

        spec = SweepSpec(
            name="fromfile", models=["sae"], machines=["rda"],
            schedules=["unfused", "full"], model_args={"nodes": 16},
        )
        spec_path = str(tmp_path / "spec.json")
        spec.save(spec_path)
        code = cli_main(
            ["sweep", "run", "--spec", spec_path, "--workers", "1", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 point(s): 2 ran" in out
        assert "sweep fromfile" in out

    def test_failed_points_set_exit_code(self, capsys):
        # SAE has no C+S grouping: every cs point fails, exit code is 1.
        code = cli_main(
            ["sweep", "run", "--models", "sae", "--machines", "rda",
             "--schedules", "cs", "--nodes", "16", "--workers", "1", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_quick(self, capsys):
        code = cli_main(["sweep", "quick", "--model", "sae", "--nodes", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "unfused" in out and "full" in out


class TestEstimateAutotuneCompile:
    def test_estimate_hierarchy_changes_byte_estimates(self, capsys):
        """--hierarchy reaches the heuristic via the pinned operand budget."""
        assert cli_main(["estimate", "--model", "gcn", "--nodes", "48"]) == 0
        flat = capsys.readouterr().out
        assert cli_main(
            ["estimate", "--model", "gcn", "--nodes", "48",
             "--hierarchy", "fpga-small@512"]
        ) == 0
        tiny = capsys.readouterr().out
        assert flat != tiny  # a 512 B operand budget must move the estimates

    def test_estimate(self, capsys):
        code = cli_main(["estimate", "--model", "gcn", *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        assert "est cycles" in out

    def test_autotune_with_verify(self, capsys):
        code = cli_main(
            ["tune", "--model", "sae", "--nodes", "16",
             "--strategy", "exhaustive", "--budget", "2", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "winner" in out and "max |err|" in out

    def test_compile_diagnostics(self, capsys):
        code = cli_main(
            ["compile", "--model", "gcn", *SMALL, "--fusion", "partial",
             "--diagnostics"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "compiled" in out
        # Structured diagnostics: per-pass timings from the pipeline.
        assert "fuse-regions" in out and "lower-region" in out

    def test_warm_start_reports_kernels_from_disk(self, capsys, tmp_path):
        """What CI's warm-start smoke greps, and ``simulate --profile`` too."""
        from repro.backend.codegen import clear_codegen_caches

        argv = ["--model", "gpt3", "--seq-len", "16", "--backend", "codegen",
                "--cache-dir", str(tmp_path)]
        outs = []
        for _ in range(2):
            clear_codegen_caches()  # a restarted process
            assert cli_main(["compile", *argv, "--diagnostics"]) == 0
            outs.append(capsys.readouterr().out)
        assert "compile source: compiled" in outs[0]
        assert "4 distinct kernel(s), 4 shared, 0 from disk" in outs[0]
        assert "compile source: disk" in outs[1]
        assert "4 distinct kernel(s), 4 shared, 4 from disk" in outs[1]
        assert outs[1].count(" from disk)") == 4
        clear_codegen_caches()
        assert cli_main(["simulate", *argv, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "8 region(s), 4 distinct kernel(s), 4 shared, 4 from disk" in out
        assert out.count(", kernel ") == 4  # one status per loaded row
        assert "4 miss(es), 4 loaded from disk, 0 written to disk" in out

    def test_compile_show_graph_and_table(self, capsys):
        code = cli_main(
            ["compile", "--model", "sae", "--nodes", "16", "--fusion", "full",
             "--show-graph", "--show-table"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fusion table" in out


class TestTune:
    def test_tune_beam_basic(self, capsys):
        code = cli_main(
            ["tune", "--model", "gcn", *SMALL, "--strategy", "beam",
             "--budget", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy   : beam (seed 0)" in out
        assert "winner" in out
        # The winner was simulated during the search, so its recompile is
        # served from the session's compile cache.
        assert "cache hit" in out

    def test_tune_trace_out_is_seed_deterministic(self, capsys, tmp_path):
        traces = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = cli_main(
                ["tune", "--model", "sae", "--nodes", "16", "--strategy",
                 "evolutionary", "--budget", "2", "--seed", "7",
                 "--trace-out", str(path)]
            )
            assert code == 0
            traces.append(path.read_bytes())
        out = capsys.readouterr().out
        assert "trace      :" in out
        assert traces[0] == traces[1]

    def test_tune_verify(self, capsys):
        code = cli_main(
            ["tune", "--model", "sae", "--nodes", "16", "--budget", "2",
             "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "max |err|" in out

    def test_tune_unknown_strategy_exits(self):
        with pytest.raises(SystemExit):
            cli_main(
                ["tune", "--model", "gcn", *SMALL, "--strategy", "randomly"]
            )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--budget", "0"], "budget must be an int >= 1, got 0"),
            (["--budget", "-1"], "budget must be an int >= 1, got -1"),
            (["--max-candidates", "0"], "max_candidates must be an int >= 2, got 0"),
            (["--max-candidates", "1"], "max_candidates must be an int >= 2, got 1"),
        ],
    )
    def test_tune_bad_search_limits_exit_with_usage(self, flags, message):
        with pytest.raises(SystemExit, match=message):
            cli_main(["tune", "--model", "sae", "--nodes", "16", *flags])

    def test_tune_help_lists_strategies(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["tune", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for flag in ("--strategy", "--budget", "--seed", "--trace-out"):
            assert flag in out
        for flag in ("--cost-model", "--calibrate"):
            assert flag not in out
        for strategy in ("beam", "evolutionary", "exhaustive"):
            assert strategy in out


class TestHelpNamesScheduleAxes:
    """Regression: the sweep help predates PR 5's grid growth; it and the
    CLI overview must name all six schedule axes and the tune verb."""

    AXES = ("fusion granularity", "dataflow order", "parallelization",
            "index splitting", "mask folding", "global rewrite")

    def test_cli_overview_names_all_axes_and_tune(self):
        import repro.cli as cli

        doc = " ".join(cli.__doc__.split())
        for axis in (*self.AXES[:5], "global-iteration rewrite"):
            assert axis in doc, axis
        assert "fuseflow tune" in doc

    def test_sweep_help_names_grid_axes_and_tune(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for axis in ("model", "dataset", "schedule", "machine", "hierarchy",
                     "splits", "backend"):
            assert axis in out, axis
        assert "tune" in out

    def test_sweep_quick_help_points_at_tune(self):
        from repro.cli import cmd_sweep_quick

        doc = " ".join(cmd_sweep_quick.__doc__.split())
        for axis in self.AXES:
            assert axis in doc, axis
        assert "`tune`" in doc and "sweep run" in doc


class TestEntryPoint:
    def test_module_subprocess(self, tmp_path):
        """`python -m repro.cli` works as a real process (console entry)."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "run", "--quiet",
             "--models", "sae", "--machines", "rda", "--nodes", "16",
             "--workers", "2", "--out", str(tmp_path / "s.jsonl")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "3 ran" in proc.stdout

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    def test_verb_inventory(self, capsys):
        """The verbs are exactly these; a new one has to be added here."""
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        out = capsys.readouterr().out
        verbs = out.split("{", 1)[1].split("}", 1)[0].split(",")
        assert verbs == [
            "run", "simulate", "sweep", "serve", "estimate", "tune", "compile"
        ]

    def test_unknown_model_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--model", "alexnet"])
