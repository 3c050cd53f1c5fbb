"""Canonical JSON for instances and reports.

Instance schema: {"group": {"type": "cyclic", "modulus": N}
                          | {"type": "window", "lo": a, "hi": b}
                          | {"type": "torsion", "exponent": r, "rank": n},
                  "elements": [...]}
with elements sorted ascending (torsion elements as coordinate lists, sorted
lexicographically).  Reports keep dataclass field order and round floats to
12 significant digits, so equal runs produce byte-identical documents.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, List, Sequence, Union

import numpy as np

from .groups import CyclicGroup, GSet, Group, IntegerWindow, TorsionGroup

__all__ = [
    "group_to_obj",
    "group_from_obj",
    "gset_to_obj",
    "gset_from_obj",
    "load_instances",
    "dump_instances",
    "round_sig",
    "to_jsonable",
    "dumps",
]

_SIG_DIGITS = 12


def group_to_obj(group: Group) -> dict:
    if group.kind == "cyclic":
        return {"type": "cyclic", "modulus": group.modulus}
    if group.kind == "window":
        return {"type": "window", "lo": group.lo, "hi": group.hi}
    return {"type": "torsion", "exponent": group.exponent, "rank": group.rank}


def _integer(x: Any, what: str) -> int:
    """x as an int: a JSON integer, or a float of integral value; a bool, a string or any other value raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or (isinstance(x, float) and not x.is_integer()):
        raise TypeError(f"{what} {x!r} is not an integer")
    return int(x)


def group_from_obj(obj: dict) -> Group:
    kind = obj.get("type")
    if kind == "cyclic":
        return CyclicGroup(_integer(obj["modulus"], "modulus"))
    if kind == "window":
        return IntegerWindow(_integer(obj["lo"], "lo"), _integer(obj["hi"], "hi"))
    if kind == "torsion":
        return TorsionGroup(_integer(obj["exponent"], "exponent"), _integer(obj["rank"], "rank"))
    raise ValueError(f"unknown group type {kind!r}")


def gset_to_obj(A: GSet) -> dict:
    elements = [list(x) if isinstance(x, tuple) else int(x) for x in A.elements]
    return {"group": group_to_obj(A.group), "elements": elements}


def gset_from_obj(obj: dict) -> GSet:
    group = group_from_obj(obj["group"])
    elems = [
        tuple(_integer(c, "coordinate") for c in x) if isinstance(x, list) else _integer(x, "element")
        for x in obj["elements"]
    ]
    return GSet(group, elems)


def load_instances(path: Union[str, Path]) -> List[GSet]:
    """Read one instance object or an array of them; a malformed instance raises ValueError naming the file."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"{path}: instance file must hold an object or an array of objects")
    sets = []
    for i, obj in enumerate(data):
        if not (isinstance(obj, dict) and isinstance(obj.get("group"), dict) and isinstance(obj.get("elements"), list)):
            raise ValueError(f'{path}: instance {i} is not an object with a "group" object and an "elements" list')
        try:
            sets.append(gset_from_obj(obj))
        except KeyError as exc:
            raise ValueError(f"{path}: instance {i} has no group field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"{path}: instance {i}: {exc}") from exc
    return sets


def dump_instances(sets: Sequence[GSet], path: Union[str, Path]) -> None:
    Path(path).write_text(dumps([gset_to_obj(s) for s in sets]))


def round_sig(x: float) -> float:
    if x == 0 or not np.isfinite(x):
        return float(x)
    return float(f"{x:.{_SIG_DIGITS}g}")


def to_jsonable(obj: Any) -> Any:
    """Recursively convert report objects to plain JSON values.

    Dataclasses keep field order; GSets use the instance schema; Fractions
    become exact "p/q" strings; floats are rounded to _SIG_DIGITS
    significant digits.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, GSet):
        return gset_to_obj(obj)
    if isinstance(obj, (CyclicGroup, IntegerWindow, TorsionGroup)):
        return group_to_obj(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return round_sig(float(obj))
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [round_sig(obj.real), round_sig(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Stable-order JSON document text (insertion order, trailing newline)."""
    return json.dumps(to_jsonable(obj), indent=2) + "\n"
