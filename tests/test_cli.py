"""Unit tests for the command-line interface."""

import json

import pytest

from repro import TREELET_PREFETCH
from repro.cli import build_parser, main
from repro.core.memo import MEMO
from repro.serve.protocol import normalize_run, normalize_sweep


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scene(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "CITY17"])

    def test_technique_defaults(self, monkeypatch):
        import repro.cli as cli

        parse = cli._request
        parsed = []

        def parse_only(request_type, **fields):
            parsed.append(parse(request_type, **fields))
            raise SystemExit(0)

        monkeypatch.setattr(cli, "_request", parse_only)
        for argv in (["run", "WKND"], ["sweep"], ["trace", "WKND"],
                     ["queries", "PTSUNI"]):
            with pytest.raises(SystemExit):
                main(argv)
        assert [request.technique for request in parsed] \
            == [TREELET_PREFETCH] * 4

    def test_mismatched_workload_is_a_parse_error(self, capsys):
        self._assert_parse_error(
            capsys, ["sweep", "--scenes", "WKND", "--workload", "knn",
                     "--scale", "smoke"],
        )

    def test_invalid_technique_spec_is_a_parse_error(self, capsys):
        self._assert_parse_error(
            capsys, ["run", "WKND", "--scale", "smoke", "--technique",
                     "treelet-prefetch,traversal=dfs"],
        )

    @staticmethod
    def _assert_parse_error(capsys, argv):
        """``argv`` exits 2 with one ``error:`` line and no traceback,
        before any scene or BVH is looked up, built or loaded."""
        MEMO.reset_counts()
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert MEMO.count("hits") == MEMO.count("misses") == 0
        assert MEMO.count("builds") == 0

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "WKND", "--scale", "huge"])


class TestCommands:
    def test_scenes_lists_all(self, capsys):
        assert main(["scenes"]) == 0
        out = capsys.readouterr().out
        for name in ("WKND", "ROBOT", "CHSNT"):
            assert name in out

    def test_stats(self, capsys):
        assert main(["stats", "WKND", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "triangles" in out
        assert "treelets" in out

    def test_run_reports_speedup(self, capsys):
        assert main(["run", "WKND", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "baseline cycles" in out

    def test_run_no_prefetch(self, capsys):
        code = main(
            ["run", "WKND", "--scale", "smoke", "--technique", "baseline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prefetch effectiveness" not in out

    def test_sweep_selected_scenes(self, capsys):
        code = main(
            ["sweep", "--scenes", "WKND", "SHIP", "--scale", "smoke"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GMean" in out

    def test_render_ascii(self, capsys, tmp_path):
        out_file = tmp_path / "frame.pgm"
        code = main(
            ["render", "WKND", "--scale", "smoke", "--size", "12",
             "--output", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        assert "P2" in out_file.read_text()

    def test_run_popularity_heuristic(self, capsys):
        code = main(
            ["run", "WKND", "--scale", "smoke", "--technique",
             "treelet-prefetch,heuristic=popularity:0.25"]
        )
        assert code == 0

    def test_run_mapping_mode(self, capsys):
        code = main(
            ["run", "WKND", "--scale", "smoke", "--technique",
             "treelet-prefetch,layout=dfs,mapping=loose"]
        )
        assert code == 0


class TestServeDocuments:
    """``run --json`` and ``sweep --json`` print the result documents
    the service answers ``POST /v1/run`` (with ``baseline``) and
    ``POST /v1/sweep`` with."""

    def test_run_json_is_the_served_run_result(self, capsys):
        assert main(["run", "WKND", "--scale", "smoke", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        served = normalize_run({
            "scene": "WKND", "technique": "treelet-prefetch",
            "scale": "smoke", "baseline": True,
        }).evaluate()
        assert printed == json.loads(json.dumps(served))
        assert printed["power_ratio"] > 0
        assert printed["baseline_stats"]["cycles"] \
            == printed["baseline_cycles"]

    def test_sweep_json_is_the_served_sweep_result(self, capsys):
        assert main(["sweep", "--scenes", "WKND", "SHIP", "--scale",
                     "smoke", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        served = normalize_sweep({
            "technique": "treelet-prefetch", "scenes": ["WKND", "SHIP"],
            "scale": "smoke",
        }).evaluate()
        assert printed == json.loads(json.dumps(served))
        for entry in printed["scenes"].values():
            assert entry["stats"]["cycles"] == entry["cycles"]
            assert entry["baseline_stats"]["cycles"] \
                == entry["baseline_cycles"]


class TestInterrupt:
    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "sweep", interrupted)
        assert main(["sweep", "--scale", "smoke"]) == 130
        err = capsys.readouterr().err
        assert err.strip() == "interrupted: sweep aborted by user"

    def test_keyboard_interrupt_in_serve_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "serve", interrupted)
        assert main(["serve", "--port", "0"]) == 130
        assert "serve aborted by user" in capsys.readouterr().err


class TestServeCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8077
        assert args.queue_limit == 64
        assert args.batch_max == 8
        assert args.workers == 1

    def test_loadgen_rejects_a_bad_mix_before_sending(self, capsys):
        # Nothing listens on port 9: a request would be a socket error.
        with pytest.raises(SystemExit) as exited:
            main(["loadgen", "--port", "9", "--requests", "1",
                  "--scenes", "WKND", "WNKD"])
        assert exited.value.code == 2
        assert capsys.readouterr().err.startswith("error: unknown scene")

    def test_loadgen_against_live_service(self, capsys):
        import asyncio
        import json as json_mod
        import threading

        from repro.serve import ServeConfig, SimulationService

        service = SimulationService(ServeConfig(port=0))
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                service.start(), loop
            ).result(30)
            code = main([
                "loadgen", "--port", str(service.port), "--qps", "50",
                "--requests", "6", "--scale", "smoke",
                "--technique", "baseline", "--json",
            ])
            assert code == 0
            summary = json_mod.loads(capsys.readouterr().out)
            assert summary["requests"] == 6
            assert summary["ok"] == 6
            assert summary["errors"] == 0
        finally:
            asyncio.run_coroutine_threadsafe(
                service.aclose(), loop
            ).result(30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
