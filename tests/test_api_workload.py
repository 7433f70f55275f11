"""Wire-schema tests for the ``workload`` field on Run/Sweep requests.

The facade's requests are the single wire schema the CLI and the
service share, so the field's round-trip, defaulting, validation
(with near-miss suggestions), and old-schema behavior are pinned here.
"""

import pytest

from repro.api import RunRequest, SweepRequest


class TestRunRequestWorkload:
    def test_roundtrip(self):
        request = RunRequest(scene="PTSUNI", technique="baseline",
                             scale="smoke", workload="knn")
        wire = request.to_dict()
        assert wire["workload"] == "knn"
        parsed = RunRequest.from_dict(wire)
        assert parsed.workload == "knn"

    def test_default_workload_elided_from_wire(self):
        wire = RunRequest(scene="WKND").to_dict()
        assert "workload" not in wire
        assert RunRequest.from_dict(wire).workload == "render"

    def test_old_documents_still_parse(self):
        # A pre-workload document (no field at all) must keep parsing
        # and mean "render" — the serve protocol relies on this for
        # rolling upgrades.
        parsed = RunRequest.from_dict({
            "scene": "WKND", "technique": "baseline", "scale": "smoke",
        })
        assert parsed.workload == "render"

    @pytest.mark.parametrize("typo,hint", [
        ("knnn", "knn"),
        ("containmnet", "containment"),
        ("rendr", "render"),
    ])
    def test_unknown_workload_suggests_near_miss(self, typo, hint):
        with pytest.raises(ValueError,
                           match=f"did you mean '{hint}'"):
            RunRequest.from_dict({
                "scene": "PTSUNI", "technique": "baseline",
                "scale": "smoke", "workload": typo,
            })

    def test_unknown_workload_lists_known(self):
        with pytest.raises(ValueError, match="render"):
            RunRequest(scene="PTSUNI", workload="raymarch").to_dict()

    def test_workload_must_be_string(self):
        with pytest.raises((TypeError, ValueError)):
            RunRequest.from_dict({
                "scene": "PTSUNI", "technique": "baseline",
                "scale": "smoke", "workload": 7,
            })

    def test_unknown_field_still_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            RunRequest.from_dict({
                "scene": "PTSUNI", "technique": "baseline",
                "scale": "smoke", "workloads": "knn",
            })

    def test_scene_is_checked_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown scene"):
            RunRequest.from_dict({"scene": "NOPE", "workload": "knn"})
        with pytest.raises(ValueError, match="needs a 'amr' scene"):
            RunRequest.from_dict({"scene": "PTSUNI",
                                  "workload": "containment"})
        assert RunRequest.from_dict({"scene": " ptsuni ",
                                     "workload": "knn"}).scene == "PTSUNI"


class TestSweepRequestWorkload:
    def test_roundtrip(self):
        request = SweepRequest(technique="treelet-prefetch",
                               scenes=("PTSUNI", "PTSCLU"),
                               scale="smoke", workload="knn")
        wire = request.to_dict()
        assert wire["workload"] == "knn"
        parsed = SweepRequest.from_dict(wire)
        assert parsed.workload == "knn"
        assert tuple(parsed.scenes) == ("PTSUNI", "PTSCLU")

    def test_default_workload_elided_from_wire(self):
        wire = SweepRequest(technique="baseline").to_dict()
        assert "workload" not in wire
        assert SweepRequest.from_dict(wire).workload == "render"

    def test_old_documents_still_parse(self):
        parsed = SweepRequest.from_dict({
            "technique": "baseline", "scenes": ["WKND"], "scale": "smoke",
        })
        assert parsed.workload == "render"

    def test_unknown_workload_suggests_near_miss(self):
        with pytest.raises(ValueError, match="did you mean 'containment'"):
            SweepRequest.from_dict({
                "technique": "baseline", "scale": "smoke",
                "workload": "containement",
            })

    def test_scenes_are_checked_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown scene"):
            SweepRequest.from_dict({"technique": "baseline",
                                    "scenes": ["PTSUNI", "NOPE"],
                                    "workload": "knn"})
        with pytest.raises(ValueError, match="needs a 'amr' scene"):
            SweepRequest.from_dict({"technique": "baseline",
                                    "scenes": ["PTSUNI"],
                                    "workload": "containment"})
        with pytest.raises(ValueError, match="non-empty"):
            SweepRequest.from_dict({"technique": "baseline", "scenes": []})
