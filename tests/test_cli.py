"""Tests for the command-line front-end."""

import pytest

from repro.cli import build_parser, config_from_args, main


class TestParser:
    def test_experiment_choices_cover_all_artifacts(self):
        parser = build_parser()
        args = parser.parse_args(["fig8"])
        assert args.experiment == "fig8"
        for name in ("fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "tab1", "fig14", "fig15"):
            assert parser.parse_args([name]).experiment == name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_config_from_args_quick(self):
        args = build_parser().parse_args(["fig8", "--quick"])
        config = config_from_args(args)
        assert config.dataset_scale < 0.1

    def test_config_from_args_scale_and_datasets(self):
        args = build_parser().parse_args(
            ["fig8", "--scale", "0.5", "--datasets", "cit-HepPh"]
        )
        config = config_from_args(args)
        assert config.dataset_scale == 0.5
        assert config.datasets == ("cit-HepPh",)

    def test_quick_and_paper_scale_exclusive(self):
        args = build_parser().parse_args(["fig8", "--quick", "--paper-scale"])
        with pytest.raises(SystemExit):
            config_from_args(args)


class TestMain:
    def test_fig3_prints_table(self, capsys):
        assert main(["fig3", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "fig3" in output
        assert "correct_rate" in output

    def test_fig13_quick_run(self, capsys):
        assert main(["fig13", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Room=2" in output
        assert "NoSquareHash" in output


class TestBackendFlag:
    def test_default_backend_is_python(self):
        args = build_parser().parse_args(["tab1", "--quick"])
        assert config_from_args(args).backend == "python"

    def test_backend_flag_threads_into_config(self):
        args = build_parser().parse_args(["tab1", "--quick", "--backend", "auto"])
        assert config_from_args(args).backend == "auto"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tab1", "--backend", "fortran"])

    def test_tab1_runs_on_each_available_backend(self, capsys):
        from repro.core.backends import NUMPY_AVAILABLE

        backends = ["python"] + (["numpy"] if NUMPY_AVAILABLE else [])
        for backend in backends:
            assert main(["tab1", "--quick", "--backend", backend]) == 0
            output = capsys.readouterr().out
            assert f"backend={backend}" in output
            assert "GSS(update_many)" in output
            assert "TCM(update_many)" in output


class TestWorkersFlag:
    def test_default_is_no_cluster_row(self):
        config = config_from_args(build_parser().parse_args(["tab1"]))
        assert config.workers == 0

    def test_workers_flag_threads_into_config(self):
        config = config_from_args(build_parser().parse_args(["tab1", "--workers", "2"]))
        assert config.workers == 2

    def test_workers_must_be_positive(self):
        args = build_parser().parse_args(["tab1", "--workers", "0"])
        with pytest.raises(SystemExit):
            config_from_args(args)

    def test_tab1_grows_cluster_row(self, capsys):
        assert main(["tab1", "--quick", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded-gss(workers=2)" in out

    def test_json_records_workers(self, tmp_path, capsys):
        target = tmp_path / "tab1.json"
        assert main(
            ["tab1", "--quick", "--workers", "2", "--json", str(target)]
        ) == 0
        import json

        document = json.loads(target.read_text())
        assert document["workers"] == 2
        structures = {
            row["structure"]
            for experiment in document["experiments"]
            for row in experiment["rows"]
        }
        assert "sharded-gss(workers=2)" in structures


class TestJsonOutput:
    def test_json_written_to_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "tab1.json"
        assert main(["tab1", "--quick", "--json", str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        assert document["format"] == "repro-gss-bench"
        assert document["backend"] == "python"
        assert document["experiments"][0]["experiment"] == "tab1"
        rows = document["experiments"][0]["rows"]
        structures = {row["structure"] for row in rows}
        assert "GSS(update_many)" in structures
        assert all(row["edges_per_second"] > 0 for row in rows)

    def test_json_to_stdout(self, capsys):
        import json

        assert main(["fig3", "--quick", "--json", "-"]) == 0
        output = capsys.readouterr().out
        start = output.index("{")
        document = json.loads(output[start:])
        assert document["format"] == "repro-gss-bench"


class TestJsonBackendMetadata:
    def test_json_records_resolved_backend_for_auto(self, tmp_path, capsys):
        import json

        from repro.core.backends import NUMPY_AVAILABLE, resolve_backend_name

        path = tmp_path / "auto.json"
        assert main(["fig3", "--quick", "--backend", "auto", "--json", str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        assert document["backend_requested"] == "auto"
        # auto prefers native > numpy > python, depending on availability.
        assert document["backend"] == resolve_backend_name("auto")
        assert document["backend"] != "auto"
        if not NUMPY_AVAILABLE:
            assert document["backend"] == "python"


class TestSketchFlag:
    def test_sketch_flag_threads_into_config(self):
        args = build_parser().parse_args(["fig8", "--quick", "--sketch", "cm", "--sketch", "cu"])
        config = config_from_args(args)
        assert config.extra_sketches == ("cm", "cu")

    def test_unknown_sketch_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--sketch", "nope"])

    def test_fig8_grows_equal_memory_rows(self, capsys):
        assert main(["fig8", "--quick", "--sketch", "cm"]) == 0
        output = capsys.readouterr().out
        assert "cm(equal memory)" in output

    def test_tab1_grows_equal_memory_rows(self, capsys):
        assert main(["tab1", "--quick", "--sketch", "gmatrix"]) == 0
        output = capsys.readouterr().out
        assert "gmatrix(equal memory)" in output

    def test_topology_experiment_rejects_topology_free_sketch(self):
        with pytest.raises(SystemExit, match="does not support successor_queries"):
            main(["fig10", "--quick", "--sketch", "cm"])

    def test_multi_experiment_runs_skip_unsupported_combinations(self, capsys):
        # In an 'extensions'-style multi-run the sketch rides through the
        # experiments that support it and is skipped elsewhere (the single
        # 'memory' runner has no extra-sketch rows; what matters is that the
        # run completes without the mid-run error of the strict mode).
        assert main(["all", "--quick", "--sketch", "cm"]) == 0
        output = capsys.readouterr().out
        assert "cm(equal memory)" in output          # fig8/tab1 rows present
        assert "fig10" in output                     # topology figs still ran

    def test_budget_only_sketches_in_choices(self):
        # windowed-gss needs a window span no experiment can infer, so it is
        # not offered for --sketch.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--sketch", "windowed-gss"])


class TestSketchesListing:
    def test_sketches_prints_registry(self, capsys):
        assert main(["sketches"]) == 0
        output = capsys.readouterr().out
        for name in ("gss", "tcm", "gmatrix", "cm", "cu", "triest-impr"):
            assert name in output
        assert "capabilities" in output

    def test_sketches_json_document(self, tmp_path, capsys):
        import json

        path = tmp_path / "sketches.json"
        assert main(["sketches", "--json", str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        assert document["format"] == "repro-gss-sketches"
        names = {row["sketch"] for row in document["sketches"]}
        assert {"gss", "tcm", "cm"} <= names

    def test_single_experiment_without_sketch_rows_errors(self):
        with pytest.raises(SystemExit, match="no --sketch comparison rows"):
            main(["window", "--quick", "--sketch", "cm"])


class TestServeSubcommand:
    """The ``serve`` sub-command's parser (the server itself is exercised by
    ``tests/test_serve.py``; here we pin the CLI surface)."""

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8750
        assert args.workers == 2
        assert args.backend == "python"
        assert args.credits == 8
        assert args.max_inflight == 64
        assert args.checkpoint_dir is None
        assert not args.restore

    def test_serve_flags_parse(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--workers", "4", "--port", "0",
             "--memory-bytes", "65536", "--checkpoint-dir", "/tmp/ck"]
        )
        assert args.workers == 4
        assert args.memory_bytes == 65536
        assert args.checkpoint_dir == "/tmp/ck"
        with pytest.raises(SystemExit):  # one data plane: no --transport
            build_serve_parser().parse_args(["--transport", "pipe"])

    def test_sizing_flags_mutually_exclusive(self):
        from repro.cli import build_serve_parser

        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(
                ["--expected-edges", "10", "--memory-bytes", "10"]
            )

    def test_restore_needs_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main(["serve", "--restore"])

    def test_serve_not_an_experiment_choice(self):
        # 'serve' is intercepted before the experiment parser; the experiment
        # positional itself does not accept it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
