"""Classification reports: stable JSON serialisation plus a shipped schema."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .frames import NullFrame
from .simclass import GradedDecomposition

CLAIMS = {
    "sim": "component norms of the graded decomposition under the stabiliser of the null line",
    "rob": "component norms of the refined decomposition under the stabiliser of the structure",
    "type": "null alignment type from the filtration of the Weyl tensor",
    "aligned": "alignment blocks C(N_perp, N_perp, N, N) = 0",
    "special": "special blocks C(N_perp, N_perp, N, .) = 0",
}


def _plain(obj):
    """A JSON-ready copy of a report value, in one walk.

    Floats are rounded to 15 significant digits, tuples made lists, numpy
    arrays and scalars unwrapped, and any other object is written as its str.
    """
    t = type(obj)
    if t is float:
        return float(f"{obj:.15g}")
    if t is dict:
        return {k: _plain(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [_plain(v) for v in obj]
    if t is str or t is bool or t is int or obj is None:
        return obj
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    return str(obj)


@dataclass
class ClassificationReport:
    tool_version: str
    chart: str
    params: dict
    point: list
    tolerances: dict
    frame: dict | None = None
    robinson: dict | None = None
    sim_decomposition: dict = field(default_factory=dict)
    refined_flags: dict = field(default_factory=dict)
    weyl_type: dict | None = None
    predicates: dict = field(default_factory=dict)
    curvature: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    claims: dict = field(default_factory=lambda: dict(CLAIMS))
    indeterminate: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def frame_dict(frame: NullFrame) -> dict:
    return {
        "k": frame.k.tolist(),
        "l": frame.l.tolist(),
        "screen": [e.tolist() for e in frame.screen],
        "max_residual": float(frame.max_residual()),
    }


def decomposition_dict(dec: GradedDecomposition) -> dict:
    return {
        "modules": dec.summary(),
        "boost_weights": {str(k): v for k, v in dec.boost_weights().items()},
        "class_residual": dec.class_residual,
        "scale": dec.scale,
    }


def indeterminate_flags(dec: GradedDecomposition) -> list:
    """Flags whose residual sits in the indeterminate band of the tolerance."""
    return [str(key) for key, comp in dec.components.items() if dec.tol.indeterminate(comp.norm, dec.scale)]
