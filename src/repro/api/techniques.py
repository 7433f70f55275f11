"""Technique registry: one grammar for naming points in the design space.

Everything that accepts a technique from the outside world — the CLI
and ``repro serve``'s requests — funnels through
:func:`parse_technique`, so there is exactly one string syntax:

* a **preset** name (``baseline``, ``treelet-prefetch``, ...), or
* ``[preset,]key=value[,key=value...]`` — start from a preset (default
  ``baseline``) and override individual :class:`~repro.core.Technique`
  fields, e.g. ``treelet-prefetch,treelet_bytes=8192,order=lifo`` or
  ``traversal=treelet,prefetch=treelet,heuristic=popularity:0.6``.

``repro techniques`` lists the presets and the recognized keys.
"""

from __future__ import annotations

from difflib import get_close_matches
from typing import Dict, List, Tuple, Union

from ..core.pipeline import (
    BASELINE,
    TREELET_PREFETCH,
    TREELET_TRAVERSAL_ONLY,
    Technique,
)
from ..prefetch import PrefetchHeuristic

#: Named starting points.  Keys are what ``--technique`` accepts.
TECHNIQUE_PRESETS: Dict[str, Technique] = {
    "baseline": BASELINE,
    "treelet-prefetch": TREELET_PREFETCH,
    "treelet-traversal": TREELET_TRAVERSAL_ONLY,
}

_PRESET_NOTES: Dict[str, str] = {
    "baseline": "DFS traversal, stock layout, no prefetch (the paper's RT unit)",
    "treelet-prefetch": "headline config: two-stack + prefetcher + PMR (Fig. 7)",
    "treelet-traversal": "treelet traversal alone, no prefetcher (Fig. 9)",
}

#: Short spellings for the most-used Technique fields.
_FIELD_ALIASES: Dict[str, str] = {
    "order": "deferred_order",
    "bytes": "treelet_bytes",
    "stride": "layout_stride",
    "voter": "voter_mode",
    "mapping": "mapping_mode",
}

_INT_FIELDS = ("layout_stride", "treelet_bytes", "voter_latency")
_BOOL_FIELDS = ("adaptive",)
_NONE_FIELDS = ("prefetch", "mapping_mode")  # "none" means literal None
_STR_FIELDS = (
    "traversal",
    "deferred_order",
    "layout",
    "scheduler",
    "formation",
    "voter_mode",
)


def _suggest(name: str, candidates) -> str:
    """A `(did you mean 'x'?)` fragment, or "" with no near miss.

    The service feeds :func:`parse_technique` untrusted input, so typos
    are the common case — a close match turns a dead-end error into a
    one-edit fix."""
    matches = get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _parse_heuristic(text: str) -> PrefetchHeuristic:
    """``always`` | ``partial`` | ``popularity[:threshold]``."""
    name, _, arg = text.partition(":")
    if name == "popularity":
        return PrefetchHeuristic(
            "popularity", threshold=float(arg) if arg else 0.5
        )
    if arg:
        raise ValueError(f"heuristic {name!r} takes no argument")
    return PrefetchHeuristic(name)


def parse_technique(spec: Union[str, Technique]) -> Technique:
    """Resolve a technique spec string (or pass a Technique through).

    Raises ``ValueError`` with the offending token on any unknown
    preset, key, or value — the same validation errors
    :class:`~repro.core.Technique` itself raises for bad field values.
    """
    if isinstance(spec, Technique):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"technique spec must be a string or Technique, "
            f"got {type(spec).__name__}"
        )
    text = spec.strip()
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ValueError("empty technique spec")
    base = BASELINE
    if "=" not in tokens[0]:
        name = tokens.pop(0)
        if name not in TECHNIQUE_PRESETS:
            known = ", ".join(sorted(TECHNIQUE_PRESETS))
            raise ValueError(
                f"unknown technique preset {name!r}"
                f"{_suggest(name, TECHNIQUE_PRESETS)} (known: {known})"
            )
        base = TECHNIQUE_PRESETS[name]
    overrides: Dict[str, object] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise ValueError(f"expected key=value, got {token!r}")
        key = _FIELD_ALIASES.get(key.strip(), key.strip())
        value = value.strip()
        if key in overrides:
            raise ValueError(
                f"duplicate technique field {key!r} "
                "(each field may appear once, aliases included)"
            )
        if key == "heuristic":
            overrides[key] = _parse_heuristic(value)
        elif key in _INT_FIELDS:
            overrides[key] = int(value)
        elif key in _BOOL_FIELDS:
            if value.lower() not in ("true", "false", "1", "0"):
                raise ValueError(f"expected a boolean for {key}, got {value!r}")
            overrides[key] = value.lower() in ("true", "1")
        elif key in _NONE_FIELDS:
            overrides[key] = None if value.lower() == "none" else value
        elif key in _STR_FIELDS:
            overrides[key] = value
        else:
            known = (
                *_STR_FIELDS, *_INT_FIELDS, *_BOOL_FIELDS, *_NONE_FIELDS,
                "heuristic", *_FIELD_ALIASES,
            )
            raise ValueError(
                f"unknown technique field {key!r}{_suggest(key, known)}"
            )
    if not overrides:
        return base
    from dataclasses import replace

    return replace(base, **overrides)


def _heuristic_spec(heuristic: PrefetchHeuristic) -> str:
    if heuristic.kind == "popularity":
        return f"popularity:{heuristic.threshold!r}"
    return heuristic.kind


def technique_to_spec(technique: Union[str, Technique]) -> str:
    """Render a :class:`Technique` as a spec string, losslessly.

    The inverse of :func:`parse_technique`:
    ``parse_technique(technique_to_spec(t)) == t`` for any technique
    the grammar can express (verified before returning).  Picks the
    preset needing the fewest overrides, so common configurations
    serialize to their short names (``"treelet-prefetch"``) and the
    wire carries specs, not pickles.
    """
    from dataclasses import fields as dataclass_fields

    technique = parse_technique(technique)
    best_name = None
    best_overrides: List[str] = []
    for name, preset in TECHNIQUE_PRESETS.items():
        overrides = []
        for spec_field in dataclass_fields(Technique):
            value = getattr(technique, spec_field.name)
            if value == getattr(preset, spec_field.name):
                continue
            if spec_field.name == "heuristic":
                overrides.append(f"heuristic={_heuristic_spec(value)}")
            elif spec_field.name in _BOOL_FIELDS:
                overrides.append(
                    f"{spec_field.name}={'true' if value else 'false'}"
                )
            elif value is None:
                overrides.append(f"{spec_field.name}=none")
            else:
                overrides.append(f"{spec_field.name}={value}")
        if best_name is None or len(overrides) < len(best_overrides):
            best_name, best_overrides = name, overrides
    spec = ",".join([best_name, *best_overrides])
    if parse_technique(spec) != technique:
        raise ValueError(
            f"technique {technique!r} cannot be expressed as a spec string"
        )
    return spec


def describe_techniques() -> List[Tuple[str, str, str]]:
    """``(preset, label, note)`` rows for every registered preset."""
    return [
        (name, technique.label(), _PRESET_NOTES.get(name, ""))
        for name, technique in TECHNIQUE_PRESETS.items()
    ]


def technique_fields() -> List[str]:
    """The override keys :func:`parse_technique` understands."""
    keys = sorted(
        (*_STR_FIELDS, *_INT_FIELDS, *_BOOL_FIELDS, *_NONE_FIELDS, "heuristic")
    )
    aliases = [f"{alias} (={target})" for alias, target in _FIELD_ALIASES.items()]
    return keys + sorted(aliases)
