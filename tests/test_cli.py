"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_requires_table(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_spec_arguments_parsed(self):
        args = build_parser().parse_args(
            ["fracture", "--sigma", "5.0", "--gamma", "1.0"]
        )
        assert args.sigma == 5.0 and args.gamma == 1.0

    def test_unknown_method_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fracture", "--method", "magic"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fracture", "--workers", "0"],
            ["fracture", "--workers", "-2"],
            ["fracture", "--workers", "two"],
            ["fracture", "--window-nm", "0"],
            ["fracture", "--window-nm", "-5"],
            ["mdp", "clips.json", "--workers", "0"],
            ["mdp", "clips.json", "--window-nm", "-1"],
        ],
    )
    def test_invalid_window_and_workers_rejected_at_parse(self, argv, capsys):
        """Bad --workers/--window-nm fail in argparse with a friendly
        message, not a ValueError traceback from the constructor."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        err = capsys.readouterr().err
        assert "must be" in err or "expected a" in err

    def test_runtime_flags_require_window(self, capsys):
        with pytest.raises(SystemExit, match="--window-nm"):
            main(["fracture", "--clip", "ILT-1", "--tile-retries", "1"])

    def test_job_submit_workers_requires_window(self, tmp_path, monkeypatch):
        """A job's tile workers run only its tiled executor: without
        --window-nm the flag is refused before the daemon is contacted."""
        import repro.cli as cli

        submitted = {}

        class Client:
            def submit(self, clips, **fields):
                submitted.update(fields)
                return "job-00000001"

        monkeypatch.setattr(cli, "_service_client", lambda args: Client())
        argv = ["job", "submit", "--state-dir", str(tmp_path), "--clip",
                "ILT-1", "--workers", "2"]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert str(caught.value) == (
            "--workers applies to the tiled executor; add --window-nm"
        )
        assert not submitted
        assert main([*argv, "--window-nm", "300"]) == 0
        assert submitted["tile_workers"] == 2

    @pytest.mark.parametrize("retries", ["0", "5"])
    @pytest.mark.parametrize(
        "command",
        [["fracture", "--clip", "ILT-1", "--method", "partition"],
         ["mdp", "clips.json", "--method", "partition"]],
        ids=["fracture", "mdp"],
    )
    def test_tile_retries_requires_window(self, command, retries):
        with pytest.raises(SystemExit) as caught:
            main([*command, "--tile-retries", retries])
        assert str(caught.value) == (
            "--tile-retries applies to the tiled executor; add --window-nm"
        )

    @pytest.mark.parametrize("flag", ["--tile-timeout", "--heartbeat"])
    @pytest.mark.parametrize(
        "command",
        [["fracture", "--clip", "ILT-1", "--method", "partition"],
         ["mdp", "clips.json", "--method", "partition"]],
        ids=["fracture", "mdp"],
    )
    def test_pool_flags_require_two_workers(self, command, flag):
        """One worker runs tiles inline, with no deadline and no
        heartbeat monitor: the flag would be silently ignored."""
        from repro.cli import _runtime_policy

        tiled = [*command, "--window-nm", "100", flag, "0.5"]
        for workers in ([], ["--workers", "1"]):
            with pytest.raises(SystemExit) as caught:
                main([*tiled, *workers])
            assert str(caught.value) == (
                f"{flag} needs a tile pool; add --workers 2 or more"
            )
        policy = _runtime_policy(
            build_parser().parse_args([*tiled, "--workers", "2"])
        )
        assert 0.5 in (policy.tile_deadline_s, policy.heartbeat_s)

    @pytest.mark.parametrize("command", [["fracture"], ["mdp", "clips.json"]])
    def test_tile_retries_sets_attempts_with_window(self, command):
        from repro.cli import _runtime_policy

        def attempts(*flags):
            argv = [*command, "--window-nm", "300", *flags]
            return _runtime_policy(build_parser().parse_args(argv)).max_attempts

        assert attempts() == 3
        assert attempts("--tile-retries", "5") == 6
        assert attempts("--tile-retries", "0") == 1

    def test_bad_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit, match="bad fault spec"):
            main(
                [
                    "fracture", "--clip", "ILT-1", "--window-nm", "300",
                    "--inject-fault", "t0,0:explode",
                ]
            )


class TestCommands:
    def test_generate_writes_clip_files(self, tmp_path, capsys):
        assert main(["generate", "--output", str(tmp_path)]) == 0
        ilt = json.loads((tmp_path / "ilt_suite.clips.json").read_text())
        assert len(ilt["clips"]) == 10
        known = json.loads((tmp_path / "known_optimal.clips.json").read_text())
        assert len(known["clips"]) == 10

    def test_figure_rendering(self, tmp_path, capsys):
        out = tmp_path / "fig4.svg"
        assert main(["figure", "4", "--output", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_fracture_clip_file_roundtrip(self, tmp_path, capsys):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        save_clips(
            {"sq": Polygon([(0, 0), (40, 0), (40, 30), (0, 30)])},
            tmp_path / "clips.json",
        )
        code = main(
            [
                "fracture",
                "--method", "partition",
                "--clip-file", str(tmp_path / "clips.json"),
                "--output", str(tmp_path / "out"),
                "--svg", str(tmp_path / "svg"),
            ]
        )
        assert code == 0
        solution = json.loads((tmp_path / "out" / "sq.solution.json").read_text())
        assert solution["metadata"]["method"] == "PARTITION"
        assert (tmp_path / "svg" / "sq.svg").exists()
        printed = capsys.readouterr().out
        assert "PARTITION" in printed

    def test_fracture_unknown_clip_name(self, tmp_path):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        save_clips(
            {"sq": Polygon([(0, 0), (40, 0), (40, 30), (0, 30)])},
            tmp_path / "clips.json",
        )
        with pytest.raises(SystemExit):
            main(
                [
                    "fracture",
                    "--clip-file", str(tmp_path / "clips.json"),
                    "--clip", "nope",
                ]
            )

    @pytest.mark.parametrize("command", ["fracture", "mdp"])
    def test_stale_clip_replays_only_unchanged_tiles(
        self, command, tmp_path, capsys
    ):
        """Edit a clip and run it again against the same store: only the
        tiles whose inputs are unchanged replay, and the result equals a
        cold run.  Bar ``b`` keeps ``a``'s name and bounding box but has
        a 40x20 nm notch in its top edge, under tiles t2,0 and t3,0."""
        from repro.geometry.polygon import Polygon
        from repro.mask.io import load_solution, save_clips

        save_clips(
            {"bar": Polygon([(0, 0), (600, 0), (600, 60), (0, 60)])},
            tmp_path / "a.json",
        )
        save_clips(
            {"bar": Polygon([(0, 0), (600, 0), (600, 60), (320, 60),
                             (320, 40), (280, 40), (280, 60), (0, 60)])},
            tmp_path / "b.json",
        )

        def run(clips, out, *extra):
            clip_args = (
                ["--clip-file", str(clips)] if command == "fracture"
                else [str(clips)]
            )
            return main([command, *clip_args, "--method", "partition",
                         "--window-nm", "100", "--output", str(out), *extra])

        store = ["--fracture-cache", str(tmp_path / "ck")]
        assert run(tmp_path / "a.json", tmp_path / "a", *store) == 0
        assert run(tmp_path / "b.json", tmp_path / "b", *store,
                   "--telemetry", str(tmp_path / "b.tel.json")) == 0
        assert run(tmp_path / "b.json", tmp_path / "cold") == 0

        payload = json.loads((tmp_path / "b.tel.json").read_text())
        [tiled] = payload["manifest"]["fault_tolerance"]
        assert tiled["replayed"] == ["t0,0", "t1,0", "t4,0", "t5,0"]
        assert payload["counters"]["windowed.tiles_replayed"] == 4
        shots, _spec, _meta = load_solution(tmp_path / "b" / "bar.solution.json")
        cold, _spec, _meta = load_solution(tmp_path / "cold" / "bar.solution.json")
        assert shots == cold
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "b" / "bar.solution.json"),
                     "--clip-file", str(tmp_path / "b.json")]) == 0
        assert "CD-clean" in capsys.readouterr().out


class TestVerifyCommand:
    def _clip_and_solution(self, tmp_path):
        from repro.geometry.polygon import Polygon
        from repro.geometry.rect import Rect
        from repro.mask.constraints import FractureSpec
        from repro.mask.io import save_clips, save_solution

        poly = Polygon([(0, 0), (60, 0), (60, 40), (0, 40)])
        clip_file = tmp_path / "clips.json"
        save_clips({"sq": poly}, clip_file)
        spec = FractureSpec()
        good = tmp_path / "good.json"
        save_solution([Rect(-1, -1, 61, 41)], spec, good, clip_name="sq")
        bad = tmp_path / "bad.json"
        save_solution([Rect(10, 10, 30, 30)], spec, bad, clip_name="sq")
        return clip_file, good, bad

    def test_verify_clean_solution(self, tmp_path, capsys):
        clip_file, good, _ = self._clip_and_solution(tmp_path)
        code = main(["verify", str(good), "--clip-file", str(clip_file)])
        assert code == 0
        assert "CD-clean" in capsys.readouterr().out

    def test_verify_bad_solution_nonzero_exit(self, tmp_path, capsys):
        clip_file, _, bad = self._clip_and_solution(tmp_path)
        code = main(["verify", str(bad), "--clip-file", str(clip_file)])
        assert code == 1
        assert "failing pixels" in capsys.readouterr().out

    def test_verify_unknown_clip(self, tmp_path):
        clip_file, good, _ = self._clip_and_solution(tmp_path)
        with pytest.raises(SystemExit):
            main(["verify", str(good), "--clip-file", str(clip_file),
                  "--clip", "nope"])

    def test_verify_uses_the_solutions_clip_in_a_clip_file(self, tmp_path, capsys):
        """Without --clip, a solution is checked against the clip it was
        written for, not the clip file's first one."""
        from repro.geometry.polygon import Polygon
        from repro.geometry.rect import Rect
        from repro.mask.constraints import FractureSpec
        from repro.mask.io import save_clips, save_solution

        clip_file = tmp_path / "clips.json"
        save_clips({
            "first": Polygon([(0, 0), (60, 0), (60, 40), (0, 40)]),
            "second": Polygon([(0, 0), (40, 0), (40, 60), (0, 60)]),
        }, clip_file)
        solution = tmp_path / "second.json"
        save_solution([Rect(-1, -1, 41, 61)], FractureSpec(), solution,
                      clip_name="second")
        assert main(["verify", str(solution), "--clip-file", str(clip_file)]) == 0
        assert capsys.readouterr().out.startswith("second: 1 shots — CD-clean")

    def test_verify_suite_solution_without_clip(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["fracture", "--clip", "ILT-3", "--method", "partition",
              "--output", str(out)])
        solution = str(out / "ILT-3.solution.json")
        capsys.readouterr()
        named = main(["verify", solution, "--clip", "ILT-3"])
        expected = capsys.readouterr().out
        assert expected.startswith("ILT-3: ")
        assert main(["verify", solution]) == named
        assert capsys.readouterr().out == expected

    def test_verify_names_the_missing_clip(self, tmp_path):
        from repro.geometry.rect import Rect
        from repro.mask.constraints import FractureSpec
        from repro.mask.io import save_solution

        solution = tmp_path / "sol.json"
        save_solution([Rect(0, 0, 20, 20)], FractureSpec(), solution,
                      clip_name="ILT-99")
        with pytest.raises(SystemExit, match="ILT-99"):
            main(["verify", str(solution)])
        save_solution([Rect(0, 0, 20, 20)], FractureSpec(), solution)
        with pytest.raises(SystemExit, match="names no clip"):
            main(["verify", str(solution)])


class TestGdsExport:
    def test_fracture_writes_gds(self, tmp_path, capsys):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        save_clips(
            {"sq": Polygon([(0, 0), (40, 0), (40, 30), (0, 30)])},
            tmp_path / "clips.json",
        )
        code = main(
            ["fracture", "--method", "partition",
             "--clip-file", str(tmp_path / "clips.json"),
             "--gds", str(tmp_path / "gds")]
        )
        assert code == 0
        from repro.mask.gds import read_layout

        cell = read_layout(tmp_path / "gds" / "sq.gds").top_cell
        assert len(cell.targets) == 1
        assert len(cell.shots) >= 1


class TestBadInputFile:
    """A clip file, layout or solution that cannot be read exits with
    one line naming it, not a traceback."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        from repro.geometry.polygon import Polygon
        from repro.geometry.rect import Rect
        from repro.mask.gds import GdsCell, TARGET_LAYER, write_gds
        from repro.mask.constraints import FractureSpec
        from repro.mask.io import save_solution

        (tmp_path / "notclips.json").write_text('{"format": "something-else"}')
        (tmp_path / "noclips.json").write_text('{"format": "repro-clips"}')
        (tmp_path / "badvertices.json").write_text(
            '{"format": "repro-clips", "clips": {"a": {"vertices": 5}}}'
        )
        (tmp_path / "notsol.json").write_text('{"format": "other"}')
        (tmp_path / "nospec.json").write_text(
            '{"format": "repro-solution", "shots": [[0, 0, 20, 20]]}'
        )
        (tmp_path / "badshot.json").write_text(
            '{"format": "repro-solution", "shots": [5]}'
        )
        (tmp_path / "bin.json").write_bytes(b"\x00\x01 not json")
        write_gds(GdsCell("TOP", [(TARGET_LAYER, Polygon(
            [(0, 0), (60, 0), (60, 40), (0, 40)]
        ))]), tmp_path / "layout.gds")
        save_solution([Rect(0, 0, 20, 20)], FractureSpec(),
                      tmp_path / "sol.json", clip_name="TOP")
        return tmp_path

    @pytest.mark.parametrize(
        "argv,path,message",
        [
            (["mdp", "{}/missing.json"], "missing.json",
             "No such file or directory"),
            (["mdp", "{}/missing.gds"], "missing.gds",
             "No such file or directory"),
            (["mdp", "{}/notclips.json"], "notclips.json",
             "not a repro clip file"),
            (["fracture", "--clip-file", "{}/bin.json"], "bin.json",
             "Expecting value"),
            (["verify", "{}/missing.json"], "missing.json",
             "No such file or directory"),
            (["verify", "{}/sol.json", "--clip-file", "{}/layout.gds"],
             "layout.gds", "GDSII layouts run through fracture or mdp"),
            (["job", "submit", "--state-dir", "{}/state",
              "--clip-file", "{}/layout.gds"],
             "layout.gds", "GDSII layouts run through fracture or mdp"),
            (["mdp", "{}/noclips.json"], "noclips.json",
             "malformed repro clip file (KeyError: 'clips')"),
            (["mdp", "{}/badvertices.json"], "badvertices.json",
             "malformed repro clip file (TypeError: "),
            (["verify", "{}/notsol.json"], "notsol.json",
             "not a repro solution file"),
            (["verify", "{}/nospec.json"], "nospec.json",
             "malformed repro solution file (KeyError: 'spec')"),
            (["verify", "{}/badshot.json"], "badshot.json",
             "malformed repro solution file (TypeError: "),
        ],
        ids=["missing-json", "missing-gds", "not-clips", "not-json",
             "verify-missing", "verify-gds", "submit-gds", "no-clips-key",
             "bad-vertices", "not-solution", "solution-no-spec",
             "solution-bad-shot"],
    )
    def test_exits_with_one_line(self, inputs, argv, path, message):
        with pytest.raises(SystemExit) as caught:
            main([arg.format(inputs) for arg in argv])
        text = str(caught.value)
        assert text.startswith(f"{inputs / path}: ")
        assert text.count(str(inputs / path)) == 1
        assert message in text
        assert "\n" not in text


class TestTelemetry:
    def _fracture_with_telemetry(self, tmp_path, telemetry_name):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        save_clips(
            {"sq": Polygon([(0, 0), (40, 0), (40, 30), (0, 30)])},
            tmp_path / "clips.json",
        )
        telemetry = tmp_path / telemetry_name
        code = main(
            ["fracture", "--method", "partition",
             "--clip-file", str(tmp_path / "clips.json"),
             "--telemetry", str(telemetry)]
        )
        assert code == 0
        return telemetry

    def test_fracture_writes_manifest_spans_convergence(self, tmp_path, capsys):
        telemetry = self._fracture_with_telemetry(tmp_path, "out.json")
        assert "wrote telemetry" in capsys.readouterr().out
        payload = json.loads(telemetry.read_text())
        assert payload["schema"] == "repro.obs/v1"
        params = payload["manifest"]["params"]
        assert params["sigma"] == 6.25 and params["lmin"] == 10.0
        names = {node["name"] for node in _walk_spans(payload["spans"])}
        assert "fracture" in names and "verify" in names
        assert payload["counters"]["fracture.shapes"] == 1

    def test_fracture_with_refinement_records_convergence(self, tmp_path, capsys):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        save_clips(
            {"sq": Polygon([(0, 0), (40, 0), (40, 30), (0, 30)])},
            tmp_path / "clips.json",
        )
        telemetry = tmp_path / "ours.json"
        code = main(
            ["fracture", "--clip-file", str(tmp_path / "clips.json"),
             "--telemetry", str(telemetry)]
        )
        assert code == 0
        payload = json.loads(telemetry.read_text())
        records = payload["convergence"]
        assert records
        assert {"iteration", "cost", "failing", "shots", "operator"} <= set(
            records[0]
        )

    def test_trace_summarize_prints_phase_breakdown(self, tmp_path, capsys):
        telemetry = self._fracture_with_telemetry(tmp_path, "out.json")
        capsys.readouterr()
        assert main(["trace", "summarize", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown" in out
        assert "fracture" in out
        assert "counters:" in out

    def test_trace_summarize_jsonl(self, tmp_path, capsys):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        save_clips(
            {"sq": Polygon([(0, 0), (40, 0), (40, 30), (0, 30)])},
            tmp_path / "clips.json",
        )
        stream = tmp_path / "out.jsonl"
        assert main(
            ["fracture", "--method", "partition",
             "--clip-file", str(tmp_path / "clips.json"),
             "--stream", str(stream)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown" in out
        table = out.split("per-phase breakdown", 1)[1].split("counters:")[0]
        assert any(
            line.split()[:1] == ["fracture"] for line in table.splitlines()
        )
        assert "counters:" in out

    def test_telemetry_jsonl_points_to_stream(self, tmp_path):
        with pytest.raises(SystemExit, match="--stream"):
            main(["fracture", "--method", "partition", "--clip", "ILT-1",
                  "--telemetry", str(tmp_path / "out.jsonl")])
        assert not (tmp_path / "out.jsonl").exists()

    def test_trace_summarize_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "summarize", str(tmp_path / "absent.json")])

    def test_trace_summarize_into_a_closed_pipe(self, tmp_path, capsys):
        """``trace summarize run.json | head`` where ``head`` is gone
        before the report is written: exit 0, no traceback."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        telemetry = self._fracture_with_telemetry(tmp_path, "out.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH"),
        ]))
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "trace", "summarize",
                 str(telemetry)],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120,
            )
        finally:
            os.close(write)
        assert result.returncode == 0, result.stderr
        assert "Error" not in result.stderr, result.stderr

    def test_mdp_telemetry_with_workers(self, tmp_path, capsys):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        clips = {
            "a": Polygon([(0, 0), (50, 0), (50, 30), (0, 30)]),
            "b": Polygon([(0, 0), (30, 0), (30, 60), (0, 60)]),
        }
        save_clips(clips, tmp_path / "clips.json")
        telemetry = tmp_path / "mdp.json"
        code = main(
            ["mdp", str(tmp_path / "clips.json"), "--method", "partition",
             "--workers", "2", "--telemetry", str(telemetry)]
        )
        assert code in (0, 1)
        payload = json.loads(telemetry.read_text())
        assert payload["counters"]["fracture.shapes"] == 2
        names = {node["name"] for node in _walk_spans(payload["spans"])}
        assert "mdp.batch" in names
        assert any(name.startswith("worker:") for name in names)


def _walk_spans(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk_spans(child)


class TestMdpCommand:
    def _clip_file(self, tmp_path):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        clips = {
            "a": Polygon([(0, 0), (50, 0), (50, 30), (0, 30)]),
            "b": Polygon([(0, 0), (30, 0), (30, 60), (0, 60)]),
        }
        path = tmp_path / "clips.json"
        save_clips(clips, path)
        return path

    def test_batch_run(self, tmp_path, capsys):
        clip_file = self._clip_file(tmp_path)
        # Exit code reflects feasibility, which is marginal for exact-fit
        # partition shots; the batch mechanics are what is under test.
        code = main(
            ["mdp", str(clip_file), "--method", "partition",
             "--output", str(tmp_path / "out")]
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "batch: " in out and "2 shapes" in out
        assert (tmp_path / "out" / "a.solution.json").exists()

    def test_baseline_economics(self, tmp_path, capsys):
        clip_file = self._clip_file(tmp_path)
        code = main(
            ["mdp", str(clip_file), "--method", "partition",
             "--baseline", "partition"]
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "vs partition:" in out

    def test_no_clip_keeps_its_raster(self, tmp_path, monkeypatch):
        """The batch loop reads each clip-file shape afresh, so a
        fractured clip's raster is freed before the next clip is
        fractured, and the baseline batch reads the clips again."""
        import weakref

        import repro.cli as cli
        from repro.fracture.base import Fracturer
        from repro.methods import make_fracturer

        inner = make_fracturer("partition")
        rasters = []

        class Watch(Fracturer):
            name = "watch"

            def fracture_shots(self, shape, spec):
                assert all(ref() is None for ref in rasters)
                rasters.append(weakref.ref(shape.inside))
                return inner.fracture_shots(shape, spec)

        monkeypatch.setattr(cli, "_make_fracturer", lambda name: Watch())
        main(["mdp", str(self._clip_file(tmp_path)), "--method", "partition",
              "--baseline", "partition"])
        assert len(rasters) == 4

    def test_parallel_matches_serial_output(self, tmp_path, capsys):
        clip_file = self._clip_file(tmp_path)
        serial = main(["mdp", str(clip_file), "--method", "partition"])
        serial_out = capsys.readouterr().out
        parallel = main(
            ["mdp", str(clip_file), "--method", "partition", "--workers", "2"]
        )
        parallel_out = capsys.readouterr().out
        assert serial == parallel
        assert serial_out.splitlines()[-1] == parallel_out.splitlines()[-1]


class TestStreamFlag:
    def _clips(self, tmp_path):
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        save_clips(
            {"sq": Polygon([(0, 0), (40, 0), (40, 30), (0, 30)])},
            tmp_path / "clips.json",
        )
        return tmp_path / "clips.json"

    def test_fracture_stream_is_a_parseable_bracketed_stream(
        self, tmp_path, capsys
    ):
        from repro.obs import read_stream

        stream = tmp_path / "run.jsonl"
        code = main(
            ["fracture", "--method", "partition",
             "--clip-file", str(self._clips(tmp_path)),
             "--stream", str(stream)]
        )
        assert code == 0
        assert "wrote telemetry stream" in capsys.readouterr().out
        records = read_stream(stream)
        assert records[0]["type"] == "stream_header"
        assert records[-1]["type"] == "stream_end"
        assert records[-1]["status"] == "ok"
        types = {r["type"] for r in records}
        assert {"manifest", "span_open", "span_close", "metrics"} <= types

    def test_stream_works_without_telemetry_flag(self, tmp_path, capsys):
        stream = tmp_path / "run.jsonl"
        assert main(
            ["fracture", "--method", "partition",
             "--clip-file", str(self._clips(tmp_path)),
             "--stream", str(stream)]
        ) == 0
        assert stream.exists()

    def test_heartbeat_requires_window(self, tmp_path):
        with pytest.raises(SystemExit, match="--window-nm"):
            main(
                ["fracture", "--clip-file", str(self._clips(tmp_path)),
                 "--clip", "sq", "--heartbeat", "0.5"]
            )

    def test_heartbeat_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fracture", "--heartbeat", "0"])


class TestTraceTail:
    def _stream(self, tmp_path):
        from repro.obs import TelemetryStream

        path = tmp_path / "run.jsonl"
        with TelemetryStream(path) as stream:
            stream.emit({"type": "event", "name": "progress",
                         "tiles_done": 1, "tiles_total": 4, "shots": 12})
            stream.emit({"type": "event", "name": "tile_outcome",
                         "tile": "t0,0", "ok": True, "shots": 12,
                         "attempts": 1})
        return path

    def test_tail_renders_each_record(self, tmp_path, capsys):
        assert main(["trace", "tail", str(self._stream(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "1/4 tiles" in out
        assert "t0,0" in out
        assert "status=ok" in out

    def test_tail_filter_narrows_output(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        assert main(
            ["trace", "tail", str(path), "--filter", "tile_outcome"]
        ) == 0
        out = capsys.readouterr().out
        assert "t0,0" in out
        assert "1/4 tiles" not in out

    def test_tail_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no telemetry stream"):
            main(["trace", "tail", str(tmp_path / "absent.jsonl")])


class TestTraceDiff:
    def _write(self, tmp_path, name, counters=None, wall_s=None):
        """A ``--telemetry`` payload holding ``counters`` and, with
        ``wall_s``, one span of that wall time."""
        from repro.obs import TelemetryRecorder

        rec = TelemetryRecorder()
        if wall_s is not None:
            with rec.span("a"):
                pass
        for key, value in (counters or {}).items():
            rec.incr(key, value)
        payload = rec.export()
        if wall_s is not None:
            payload["spans"]["children"][0]["wall_s"] = wall_s
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", {"total_shots": 100})
        head = self._write(tmp_path, "head.json", {"total_shots": 100})
        assert main(["trace", "diff", base, head]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", {"total_shots": 100})
        head = self._write(tmp_path, "head.json", {"total_shots": 150})
        assert main(["trace", "diff", base, head]) == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSED" in out

    def test_thresholds_are_adjustable(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", wall_s=1.0)
        head = self._write(tmp_path, "head.json", wall_s=1.5)
        assert main(["trace", "diff", base, head]) == 1
        capsys.readouterr()
        assert main(
            ["trace", "diff", base, head, "--time-rel", "0.6"]
        ) == 0

    def test_diff_accepts_stream_jsonl_inputs(self, tmp_path, capsys):
        from repro.obs import TelemetryStream

        def write_stream(name, shots):
            path = tmp_path / name
            with TelemetryStream(path) as stream:
                stream.emit({"type": "event", "name": "tile_outcome",
                             "tile": "t0,0", "ok": True, "shots": shots})
            return str(path)

        base = write_stream("base.jsonl", 100)
        head = write_stream("head.jsonl", 200)
        assert main(["trace", "diff", base, head]) == 1
        assert "tiles.shots" in capsys.readouterr().out

    def test_missing_input_is_a_friendly_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            main(["trace", "diff", str(tmp_path / "a.json"),
                  str(tmp_path / "b.json")])

    def test_other_json_is_refused_in_one_line(self, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps({"benchmark": "x", "total_shots": 100}))
        payload = self._write(tmp_path, "run.json", {"total_shots": 100})
        with pytest.raises(SystemExit) as caught:
            main(["trace", "diff", payload, str(bench)])
        message = str(caught.value)
        assert "BENCH_x.json: not a telemetry payload" in message
        assert "\n" not in message


class TestHierarchyCli:
    """GDSII layout input, --hierarchy/--flatten and --fracture-cache."""

    @pytest.fixture()
    def layout_gds(self, tmp_path):
        from repro.geometry.polygon import Polygon
        from repro.mask.gds import (
            GdsCell, GdsRef, Layout, TARGET_LAYER, write_layout,
        )

        unit = GdsCell("UNIT", polygons=[
            (TARGET_LAYER, Polygon([(0, 0), (60, 0), (60, 40), (0, 40)])),
        ])
        top = GdsCell("TOP", refs=[
            GdsRef.array("UNIT", origin=(0.0, 0.0), cols=3, rows=2,
                         col_pitch=150.0, row_pitch=150.0),
        ])
        path = tmp_path / "layout.gds"
        write_layout(Layout(cells={"UNIT": unit, "TOP": top}, top="TOP"), path)
        return path

    def test_hierarchy_flatten_flags_parse(self):
        args = build_parser().parse_args(["fracture", "--hierarchy"])
        assert args.hierarchy is True
        args = build_parser().parse_args(["fracture", "--flatten"])
        assert args.hierarchy is False
        args = build_parser().parse_args(["mdp", "clips.json"])
        assert args.hierarchy is True

    def test_hierarchy_and_flatten_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fracture", "--hierarchy", "--flatten"])

    def test_fracture_layout_end_to_end(self, layout_gds, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        out_dir = tmp_path / "out"
        code = main([
            "fracture", "--method", "partition",
            "--clip-file", str(layout_gds),
            "--fracture-cache", str(cache_dir),
            "--output", str(out_dir),
        ])
        output = capsys.readouterr().out
        assert "6 placed polygons (1 unique)" in output
        assert "cache_hits=5" in output
        assert (out_dir / "TOP.solution.json").exists()
        assert list(cache_dir.glob("*.json"))
        assert code in (0, 1)  # exit reflects feasibility, not errors

        # Warm re-run: everything instantiated from the disk store.
        main([
            "fracture", "--method", "partition",
            "--clip-file", str(layout_gds),
            "--fracture-cache", str(cache_dir),
        ])
        warm = capsys.readouterr().out
        assert "shots, 0 fractured fresh" in warm
        assert "hit_rate=100.0%" in warm

    def test_flatten_matches_hierarchy_shots(self, layout_gds, tmp_path, capsys):
        from repro.cli import main
        from repro.mask.io import load_solution

        hier_dir, flat_dir = tmp_path / "hier", tmp_path / "flat"
        main(["fracture", "--method", "partition",
              "--clip-file", str(layout_gds), "--output", str(hier_dir)])
        main(["fracture", "--method", "partition", "--flatten",
              "--clip-file", str(layout_gds), "--output", str(flat_dir)])
        hier_shots, _, _ = load_solution(hier_dir / "TOP.solution.json")
        flat_shots, _, _ = load_solution(flat_dir / "TOP.solution.json")
        assert hier_shots == flat_shots

    def test_layout_rejects_per_clip_outputs(self, layout_gds, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="svg"):
            main(["fracture", "--clip-file", str(layout_gds),
                  "--svg", str(tmp_path / "svg")])
        with pytest.raises(SystemExit, match="clip"):
            main(["fracture", "--clip-file", str(layout_gds),
                  "--clip", "UNIT"])

    def test_mdp_layout_rejects_baseline(self, layout_gds):
        from repro.cli import main

        with pytest.raises(SystemExit, match="baseline"):
            main(["mdp", str(layout_gds), "--baseline", "partition"])

    @pytest.mark.parametrize(
        "command",
        [["fracture", "--clip-file"], ["mdp"]], ids=["fracture", "mdp"],
    )
    def test_layout_workers_write_the_serial_solution(
        self, command, tmp_path, capsys
    ):
        """Without --window-nm, --workers fractures a layout's templates
        on the batch loop's pool and writes what one worker writes."""
        from repro.cli import main
        from repro.geometry.polygon import Polygon
        from repro.mask.gds import (
            GdsCell, GdsRef, Layout, TARGET_LAYER, write_layout,
        )
        from repro.mask.io import load_solution

        unit = GdsCell("UNIT", polygons=[
            (TARGET_LAYER, Polygon([(0, 0), (120, 0), (120, 40), (0, 40)])),
            (TARGET_LAYER, Polygon([(160, 0), (200, 0), (200, 40), (160, 40)])),
        ])
        top = GdsCell("TOP", refs=[
            GdsRef.array("UNIT", origin=(0.0, 0.0), cols=3, rows=2,
                         col_pitch=260.0, row_pitch=260.0),
            GdsRef("UNIT", origin=(1000.0, 0.0), rotation=90),
        ])
        layout = tmp_path / "array.gds"
        write_layout(Layout(cells={"UNIT": unit, "TOP": top}, top="TOP"), layout)

        def solution(workers):
            """Exit code (the layout's verdict) and the written shots."""
            out = tmp_path / f"w{workers}"
            code = main([*command, str(layout), "--method", "partition",
                         "--workers", str(workers), "--output", str(out)])
            return code, load_solution(out / "TOP.solution.json")[0]

        serial = solution(1)
        assert "14 placed polygons (3 unique)" in capsys.readouterr().out
        assert solution(2) == serial
        assert solution(4) == serial

    def test_layout_window_keeps_the_pool_in_the_tile_executor(
        self, layout_gds, monkeypatch, capsys
    ):
        """With --window-nm the templates run one at a time and the
        pool is the tile executor's, as for a clip batch."""
        import repro.mask.hierarchy as hierarchy
        from repro.cli import main

        seen = {}
        fracture_layout = hierarchy.fracture_layout

        def spy(layout, fracturer, spec, **kwargs):
            seen.update(batch=kwargs["workers"], tiles=fracturer.workers)
            return fracture_layout(layout, fracturer, spec, **kwargs)

        monkeypatch.setattr(hierarchy, "fracture_layout", spy)
        main(["mdp", str(layout_gds), "--method", "partition",
              "--window-nm", "100", "--workers", "2"])
        assert seen == {"batch": 1, "tiles": 2}

    def test_mdp_requires_window_for_checkpoint(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as mdp_exit:
            main(["mdp", "clips.json", "--tile-retries", "1"])
        with pytest.raises(SystemExit) as fracture_exit:
            main(["fracture", "--tile-retries", "1"])
        assert str(mdp_exit.value) == str(fracture_exit.value) == (
            "--tile-retries applies to the tiled executor; add --window-nm"
        )

    def test_fracture_still_requires_window_for_checkpoint(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="window"):
            main(["fracture", "--tile-retries", "1"])

    def test_mdp_fracture_cache_resume(self, tmp_path, capsys):
        from repro.cli import main
        from repro.geometry.polygon import Polygon
        from repro.mask.io import save_clips

        clips = {
            "a": Polygon([(0, 0), (60, 0), (60, 40), (0, 40)]),
            "b": Polygon([(0, 0), (80, 0), (80, 30), (40, 30), (40, 70), (0, 70)]),
        }
        clip_file = tmp_path / "clips.json"
        save_clips(clips, clip_file)
        store = tmp_path / "bcache"
        argv = ["mdp", str(clip_file), "--method", "partition",
                "--fracture-cache", str(store)]
        main(argv)
        first = capsys.readouterr().out
        entries = sorted(store.glob("*.json"))
        assert len(entries) == 2
        entries[0].unlink()  # as if the run stopped before that shape

        main([*argv, "--telemetry", str(tmp_path / "run.json")])
        second = capsys.readouterr().out
        def batch_lines(out):
            return [ln for ln in out.splitlines() if ln.startswith("batch:")]

        assert len(batch_lines(first)) == 1
        assert batch_lines(first) == batch_lines(second)
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["manifest"]["mdp_batch"]["fresh"] == 1
        assert payload["manifest"]["mdp_batch"]["cache_hits"] == 1
