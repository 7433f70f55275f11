"""The ``repro.api`` facade: run / sweep / compare, with typed requests.

The only front door for evaluating techniques.  The facade accepts
techniques as objects **or** spec strings
(:func:`repro.api.parse_technique`) and scales as objects or names, and
it owns the fast paths: sweeps batch all missing trace generation
through one vectorized forest traversal
(:func:`repro.core.pipeline.prewarm_traces`), and sweeps with enough
replay work fan it across the :mod:`repro.exec` worker pool.  Results
are bit-identical whichever path runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from ..core.pipeline import (
    BASELINE,
    DEFAULT,
    SCALES,
    ExperimentResult,
    Job,
    Scale,
    Technique,
    _run_experiment,
    missing_results,
)
from ..core.sweeps import SceneOutcome, SweepResult
from ..obs.spans import span as _span
from .techniques import _suggest, parse_technique, technique_to_spec

TechniqueLike = Union[Technique, str]
ScaleLike = Union[Scale, str]


def _coerce_scale(scale: ScaleLike) -> Scale:
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale.strip().lower()]
    except (AttributeError, KeyError):
        known = ", ".join(SCALES)
        raise ValueError(f"unknown scale {scale!r} (known: {known})")


def _scale_name(scale: ScaleLike) -> str:
    """The wire form of ``scale``: its name, which only a named scale
    (an entry of :data:`SCALES`, GPU included) may travel as."""
    resolved = _coerce_scale(scale)
    named = SCALES.get(resolved.name)
    if named != resolved:
        what = ("differs from the named scale" if named
                else "is not a named scale")
        raise ValueError(
            f"scale {resolved.name!r} {what}, so it does not serialize "
            f"(named: {', '.join(SCALES)})"
        )
    return resolved.name


def _default_scenes(workload: str = "render") -> List[str]:
    from ..scenes import ALL_SCENES, SCENE_KINDS, QUERY_SCENES

    if workload == "render":
        return list(ALL_SCENES)
    from ..queries.workloads import WORKLOAD_SCENE_KIND

    required = WORKLOAD_SCENE_KIND[workload]
    return [name for name in QUERY_SCENES if SCENE_KINDS[name] == required]


def _coerce_workload(workload: str) -> str:
    from ..queries.workloads import validate_workload

    return validate_workload(workload)


def _check_scenes(scenes: Iterable[str], workload: str) -> tuple:
    """Canonicalise scene names (strip + upper) and check that each one
    exists and can run ``workload``."""
    from ..queries.workloads import check_scene_workload
    from ..scenes import ALL_SCENES, QUERY_SCENES

    known = (*ALL_SCENES, *QUERY_SCENES)
    canonical = []
    for name in scenes:
        scene = name.strip().upper()
        if scene not in known:
            raise ValueError(
                f"unknown scene {name!r} (known: {', '.join(known)})"
            )
        check_scene_workload(scene, workload)
        canonical.append(scene)
    return tuple(canonical)


def _check_fields(payload: dict, known: tuple, ignore: tuple,
                  what: str) -> dict:
    """Filter ``payload`` down to ``known`` keys, rejecting unknowns
    with the same near-miss suggestions :func:`parse_technique` gives
    (``ignore`` keys — transport-level fields a caller layers on top —
    are skipped but still count as suggestion candidates)."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"{what} document must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    data = {}
    candidates = (*known, *ignore)
    for key, value in payload.items():
        if key in ignore:
            continue
        if key not in known:
            raise ValueError(
                f"unknown {what} field {key!r}{_suggest(key, candidates)} "
                f"(known: {', '.join(known)})"
            )
        data[key] = value
    return data


def _check_str(data: dict, key: str, what: str,
               required: bool = False) -> None:
    if required and key not in data:
        raise ValueError(f"{what} document is missing required {key!r}")
    if key in data and not isinstance(data[key], str):
        raise ValueError(
            f"{what} field {key!r} must be a string, "
            f"got {type(data[key]).__name__}"
        )


_RUN_WIRE_FIELDS = (
    "scene", "technique", "scale", "workload", "cache",
)


@dataclass(frozen=True)
class RunRequest:
    """Everything one evaluation needs, as data.

    ``technique`` and ``scale`` accept spec strings (resolved with
    :func:`parse_technique` / by scale name) or the objects themselves.
    ``cache=False`` bypasses both tiers of stored results, the
    in-process memo and the artifact cache, so the run replays (its
    BVH and trace set still come from the memo or the cache).
    ``workload`` picks the ray population: "render" (the paper's
    camera + secondary rays) or a :mod:`repro.queries` workload
    ("knn"/"containment", which require a matching query scene).

    The run replays on the scale's GPU (:attr:`Scale.gpu`); a GPU
    variant is a scale of its own, ``dataclasses.replace(scale,
    gpu=...)``, and its results are stored like any other's.

    :meth:`to_dict` / :meth:`from_dict` round-trip the request through
    JSON (techniques as spec strings, scales by name) so services can
    forward it losslessly; a scale that is not one of :data:`SCALES`
    and the live ``observer`` deliberately have no wire form.
    """

    scene: str
    technique: TechniqueLike = BASELINE
    scale: ScaleLike = DEFAULT
    workload: str = "render"
    cache: bool = True
    observer: Optional[object] = None

    def to_dict(self) -> dict:
        """The JSON-safe form of this request (defaults elided).

        Raises ``ValueError`` if the request carries what cannot travel
        as JSON: an ``observer``, or a scale that is not a named one.
        """
        if self.observer is not None:
            raise ValueError("RunRequest.observer does not serialize")
        doc: Dict[str, object] = {
            "scene": self.scene,
            "technique": technique_to_spec(self.technique),
            "scale": _scale_name(self.scale),
        }
        if self.workload != "render":
            doc["workload"] = _coerce_workload(self.workload)
        if not self.cache:
            doc["cache"] = False
        return doc

    @classmethod
    def from_dict(cls, payload: dict, *,
                  ignore: tuple = ()) -> "RunRequest":
        """Parse a :meth:`to_dict` document (strictly).

        Unknown keys raise ``ValueError`` with a near-miss suggestion;
        ``ignore`` names transport-level keys a carrier protocol layers
        on top (they are skipped, not errors).  Everything is validated
        here, not mid-run: the scene name is canonicalised and must
        exist and suit the workload, and the technique and scale are
        kept as the resolved objects, so the parsed request is complete
        and hashable.
        """
        data = _check_fields(payload, _RUN_WIRE_FIELDS, ignore, "RunRequest")
        _check_str(data, "scene", "RunRequest", required=True)
        for key in ("technique", "scale", "workload"):
            _check_str(data, key, "RunRequest")
        if "cache" in data and not isinstance(data["cache"], bool):
            raise ValueError(
                "RunRequest field 'cache' must be a boolean, "
                f"got {type(data['cache']).__name__}"
            )
        workload = _coerce_workload(data.get("workload", "render"))
        (scene,) = _check_scenes((data["scene"],), workload)
        return cls(
            scene=scene,
            technique=parse_technique(data.get("technique", BASELINE)),
            scale=_coerce_scale(data.get("scale", DEFAULT)),
            workload=workload,
            cache=data.get("cache", True),
        )


_SWEEP_WIRE_FIELDS = (
    "technique", "scenes", "scale", "workload", "baseline", "jobs",
)


@dataclass(frozen=True)
class SweepRequest:
    """A sweep, as data: one technique against a baseline over scenes.

    The typed counterpart of :func:`sweep`'s keyword surface, with the
    same JSON round-trip contract as :class:`RunRequest`
    (:meth:`to_dict` / :meth:`from_dict`).  ``scenes=None`` means the
    workload's default scene set (the full 16-scene library for
    "render", the matching query scenes otherwise), resolved at
    evaluation time.  ``jobs=None`` lets :func:`sweep` work out how
    many processes replay.
    """

    technique: TechniqueLike
    scenes: Optional[tuple] = None
    scale: ScaleLike = DEFAULT
    workload: str = "render"
    baseline: TechniqueLike = BASELINE
    jobs: Optional[int] = None

    def to_dict(self) -> dict:
        """The JSON-safe form of this sweep (defaults elided); raises
        ``ValueError`` for a scale that is not a named one."""
        doc: Dict[str, object] = {
            "technique": technique_to_spec(self.technique),
            "scale": _scale_name(self.scale),
        }
        if self.workload != "render":
            doc["workload"] = _coerce_workload(self.workload)
        if self.scenes is not None:
            doc["scenes"] = list(self.scenes)
        baseline_spec = technique_to_spec(self.baseline)
        if baseline_spec != "baseline":
            doc["baseline"] = baseline_spec
        if self.jobs is not None:
            doc["jobs"] = self.jobs
        return doc

    @classmethod
    def from_dict(cls, payload: dict, *,
                  ignore: tuple = ()) -> "SweepRequest":
        """Parse a :meth:`to_dict` document, validated as
        :meth:`RunRequest.from_dict` validates; an explicit ``scenes``
        list must be non-empty."""
        data = _check_fields(
            payload, _SWEEP_WIRE_FIELDS, ignore, "SweepRequest"
        )
        _check_str(data, "technique", "SweepRequest", required=True)
        _check_str(data, "baseline", "SweepRequest")
        _check_str(data, "scale", "SweepRequest")
        _check_str(data, "workload", "SweepRequest")
        workload = _coerce_workload(data.get("workload", "render"))
        scenes = data.get("scenes")
        if scenes is not None:
            if (not isinstance(scenes, (list, tuple)) or not scenes
                    or not all(isinstance(s, str) for s in scenes)):
                raise ValueError(
                    "SweepRequest field 'scenes' must be a non-empty "
                    "list of scene names"
                )
            scenes = _check_scenes(scenes, workload)
        jobs = data.get("jobs")
        # bool is an int in Python, but `true` is not a count on the wire.
        if jobs is not None and (not isinstance(jobs, int)
                                 or isinstance(jobs, bool) or jobs < 1):
            raise ValueError(
                "SweepRequest field 'jobs' must be a positive integer"
            )
        return cls(
            technique=parse_technique(data["technique"]),
            scenes=scenes,
            scale=_coerce_scale(data.get("scale", DEFAULT)),
            workload=workload,
            baseline=parse_technique(data.get("baseline", BASELINE)),
            jobs=jobs,
        )


@dataclass
class RunResult:
    """One evaluation, resolved: the request plus everything it produced."""

    scene: str
    technique: Technique
    scale: Scale
    experiment: ExperimentResult = field(repr=False)
    workload: str = "render"

    @property
    def stats(self):
        """The run's :class:`~repro.gpusim.SimStats`."""
        return self.experiment.stats

    @property
    def cycles(self) -> int:
        return self.experiment.cycles

    @property
    def power(self):
        return self.experiment.power

    @property
    def traversal(self):
        return self.experiment.traversal

    @property
    def tree(self):
        return self.experiment.tree

    @property
    def treelet_count(self) -> int:
        return self.experiment.treelet_count

    def speedup_over(self, baseline: "RunResult") -> float:
        """Cycle-ratio speedup of this run over ``baseline``."""
        from ..core.pipeline import speedup as _speedup

        return _speedup(baseline.experiment, self.experiment)


def run(
    scene: Union[str, RunRequest],
    technique: TechniqueLike = BASELINE,
    scale: ScaleLike = DEFAULT,
    *,
    workload: str = "render",
    cache: bool = True,
    observer=None,
) -> RunResult:
    """Evaluate one technique on one scene; the front door for single runs.

    Accepts either positional ``(scene, technique, scale)`` arguments or
    a single :class:`RunRequest`.  With ``cache=True`` (the default) a
    result stored by an earlier run of the same source, in this
    process's memo or in the active artifact cache, is returned instead
    of replaying.  ``cache=False`` or an ``observer`` skip both tiers,
    so the run always replays.  The run replays on ``scale.gpu``.
    """
    request = scene if isinstance(scene, RunRequest) else RunRequest(
        scene=scene, technique=technique, scale=scale, workload=workload,
        cache=cache, observer=observer,
    )
    resolved_technique = parse_technique(request.technique)
    resolved_scale = _coerce_scale(request.scale)
    resolved_workload = _coerce_workload(request.workload)
    with _span(
        "api.run",
        scene=request.scene,
        technique=resolved_technique.label(),
        scale=resolved_scale.name,
        workload=resolved_workload,
    ):
        experiment = _run_experiment(
            request.scene,
            resolved_technique,
            resolved_scale,
            use_cache=request.cache,
            observer=request.observer,
            workload=resolved_workload,
        )
    return RunResult(
        scene=request.scene,
        technique=resolved_technique,
        scale=resolved_scale,
        experiment=experiment,
        workload=resolved_workload,
    )


def _prewarm(techniques: List[Technique], scenes: List[str], scale: Scale,
             workload: str, jobs: Optional[int], progress):
    """Warm every (scene, technique) experiment a sweep will read and
    return the :class:`~repro.exec.ExecutionReport` of the replays.

    Stored results load into the memo first.  For the rest, traces
    ride one vectorized forest pass in this process, then the replays
    run here or, with ``jobs > 1``, fan across the worker pool;
    ``jobs=None`` picks the count (:func:`repro.exec.executor.plan_workers`).
    """
    from ..exec.executor import ExecutionReport, prewarm_replay_jobs

    report = ExecutionReport()
    missing = missing_results([
        Job(scene, technique, scale, workload)
        for scene in scenes for technique in techniques
    ])
    if missing:
        prewarm_replay_jobs(missing, workers=jobs, progress=progress,
                            report=report)
    return report


def _assemble(technique: Technique, base: Technique, scenes: List[str],
              scale: Scale, workload: str, report) -> SweepResult:
    """The sweep's result, read from the warm memo."""
    result = SweepResult(technique=technique, execution=report)
    for scene in scenes:
        result.outcomes[scene] = SceneOutcome(
            scene=scene,
            baseline=_run_experiment(scene, base, scale, workload=workload),
            candidate=_run_experiment(scene, technique, scale,
                                      workload=workload),
        )
    return result


def _note_plan(span_, report) -> None:
    if span_ is not None:
        span_.args.update(report.plan())


def sweep(
    technique: TechniqueLike,
    scenes: Optional[Iterable[str]] = None,
    scale: ScaleLike = DEFAULT,
    *,
    workload: str = "render",
    baseline: TechniqueLike = BASELINE,
    jobs: Optional[int] = None,
    progress=None,
) -> SweepResult:
    """Evaluate ``technique`` against ``baseline`` on every scene.

    ``scenes=None`` sweeps the workload's default scene set: the full
    16-scene library for "render", the matching query scenes for
    "knn"/"containment".  All missing trace generation is batched
    through the vectorized forest driver first; the replays then run in
    ``jobs`` processes, this one included (:mod:`repro.exec`).
    ``jobs=None`` works the count out from the host's CPUs and the
    replays' visits (see ``docs/execution.md``).  Per-scene
    ``SimStats`` are bit-identical whatever the count, and the result's
    ``execution`` records it.  ``progress`` is the executor's
    ``(done, total, job, source)`` callback.

    A single :class:`SweepRequest` may be passed in place of
    ``technique`` (mirroring :func:`run` and :class:`RunRequest`).
    """
    if isinstance(technique, SweepRequest):
        request = technique
        technique = request.technique
        scenes = request.scenes
        scale = request.scale
        workload = request.workload
        baseline = request.baseline
        jobs = request.jobs
    resolved = parse_technique(technique)
    base = parse_technique(baseline)
    resolved_scale = _coerce_scale(scale)
    resolved_workload = _coerce_workload(workload)
    scene_list = (
        list(scenes) if scenes is not None
        else _default_scenes(resolved_workload)
    )
    with _span(
        "api.sweep",
        technique=resolved.label(),
        scale=resolved_scale.name,
        scenes=len(scene_list),
        jobs=jobs,
        workload=resolved_workload,
    ) as span_:
        report = _prewarm([base, resolved], scene_list, resolved_scale,
                          resolved_workload, jobs, progress)
        _note_plan(span_, report)
        return _assemble(resolved, base, scene_list, resolved_scale,
                         resolved_workload, report)


def compare(
    techniques: Dict[str, TechniqueLike],
    scenes: Optional[Iterable[str]] = None,
    scale: ScaleLike = DEFAULT,
    *,
    workload: str = "render",
    baseline: TechniqueLike = BASELINE,
    jobs: Optional[int] = None,
    progress=None,
) -> Dict[str, SweepResult]:
    """Sweep several labeled techniques over the same scene set.

    The shared baseline is evaluated once, and every (technique, scene)
    replay shares one fan-out, planned as :func:`sweep` plans it.
    """
    resolved = {
        label: parse_technique(technique)
        for label, technique in techniques.items()
    }
    base = parse_technique(baseline)
    resolved_scale = _coerce_scale(scale)
    resolved_workload = _coerce_workload(workload)
    scene_list = (
        list(scenes) if scenes is not None
        else _default_scenes(resolved_workload)
    )
    if not resolved:
        return {}
    with _span(
        "api.compare",
        techniques=len(resolved),
        scale=resolved_scale.name,
        scenes=len(scene_list),
        jobs=jobs,
        workload=resolved_workload,
    ) as span_:
        report = _prewarm([base, *resolved.values()], scene_list,
                          resolved_scale, resolved_workload, jobs, progress)
        _note_plan(span_, report)
        return {
            label: _assemble(technique, base, scene_list, resolved_scale,
                             resolved_workload, report)
            for label, technique in resolved.items()
        }
