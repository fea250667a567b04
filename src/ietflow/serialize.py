"""JSON wire formats.

Exchange files carry {"lengths": ["2/3", "1/3"], "permutation": [2, 1]}
with rationals as decimal-free p/q strings.  Files must be canonical: a
permutation that would merge on construction is rejected with a
diagnostic rather than silently repaired.  Every malformed file, a
non-positive length or a non-bijective permutation too, raises FormatError.

Suspension flow files carry {"base": <exchange>, "roof": [...],
"singular_points": [...], "K": <int>}.
"""

from __future__ import annotations

import json

from .closing import SuspensionFlow
from .errors import FormatError, NonPositiveLength, PermutationNotBijective
from .iet import Iet, format_rational, make_iet, parse_rational


def _rational_list(data: dict, key: str, default: list | None = None) -> list:
    values = data.get(key, default)
    if not isinstance(values, list):
        raise FormatError(f"'{key}' must be a list of p/q strings")
    return [parse_rational(str(x)) for x in values]


def iet_to_dict(iet: Iet) -> dict:
    return {
        "lengths": [format_rational(x) for x in iet.lengths],
        "permutation": list(iet.permutation),
    }


def iet_from_dict(data: dict) -> Iet:
    if not isinstance(data, dict) or "lengths" not in data or "permutation" not in data:
        raise FormatError("exchange JSON needs 'lengths' and 'permutation'")
    lengths = _rational_list(data, "lengths")
    permutation = data["permutation"]
    if not isinstance(permutation, list) or any(type(p) is not int for p in permutation):
        raise FormatError("permutation entries must be integers")
    try:
        iet = make_iet(lengths, permutation)
    except (NonPositiveLength, PermutationNotBijective) as exc:
        raise FormatError(str(exc)) from exc
    for i in range(1, len(permutation)):
        if permutation[i] == permutation[i - 1] + 1:
            raise FormatError(
                f"permutation is not canonical: intervals {i} and {i + 1} "
                "have adjacent images and would merge"
            )
    return iet


def load_iet(path: str) -> Iet:
    with open(path, encoding="utf-8") as handle:
        return iet_from_dict(json.load(handle))


def dump_iet(iet: Iet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(iet_to_dict(iet), handle, sort_keys=True, indent=2)
        handle.write("\n")


def flow_to_dict(flow: SuspensionFlow) -> dict:
    return {
        "base": iet_to_dict(flow.base),
        "roof": [format_rational(r) for r in flow.roof],
        "singular_points": [format_rational(q) for q in flow.singular_points],
        "K": flow.K,
    }


def flow_from_dict(data: dict) -> SuspensionFlow:
    if not isinstance(data, dict) or "base" not in data or "roof" not in data:
        raise FormatError("flow JSON needs 'base' and 'roof'")
    base = iet_from_dict(data["base"])
    roof = _rational_list(data, "roof")
    singulars = _rational_list(data, "singular_points", [])
    k = data.get("K", len(singulars))
    if type(k) is not int:
        raise FormatError("'K' must be an integer")
    try:
        return SuspensionFlow(base, tuple(roof), tuple(singulars), k)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_flow(path: str) -> SuspensionFlow:
    with open(path, encoding="utf-8") as handle:
        return flow_from_dict(json.load(handle))
