"""Search spaces for classifier hyperparameters and their unit-cube encoding.

A :class:`SearchSpace` is an ordered list of named parameters.  Every
parameter maps to exactly one coordinate of the unit hypercube ``[0, 1]^d``,
so optimizers only ever see points in the cube while configurations keep
their native types (floats, ints, category labels).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

KINDS = ("continuous", "log-continuous", "integer", "categorical")


@dataclass(frozen=True)
class ParamSpec:
    """A single search-space dimension.

    Parameters
    ----------
    name : str
        Unique parameter name.
    kind : str
        One of ``continuous``, ``log-continuous``, ``integer``,
        ``categorical``.
    lower, upper : float, optional
        Inclusive bounds; required for every kind except ``categorical``.
    categories : sequence of str, optional
        Ordered category labels; required for ``categorical``.
    """

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    categories: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"parameter {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.categories:
                raise ValueError(f"parameter {self.name!r}: empty category list")
            cats = tuple(str(c) for c in self.categories)
            if len(set(cats)) != len(cats):
                raise ValueError(f"parameter {self.name!r}: duplicate categories")
            object.__setattr__(self, "categories", cats)
        else:
            if self.lower is None or self.upper is None:
                raise ValueError(f"parameter {self.name!r}: bounds are required")
            if not float(self.lower) < float(self.upper):
                raise ValueError(f"parameter {self.name!r}: lower must be < upper")
            if self.kind == "log-continuous" and float(self.lower) <= 0.0:
                raise ValueError(
                    f"parameter {self.name!r}: log-continuous bounds must be positive"
                )
            if self.kind == "integer":
                if self.lower != int(self.lower) or self.upper != int(self.upper):
                    raise ValueError(
                        f"parameter {self.name!r}: integer bounds must be whole numbers"
                    )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.kind == "categorical":
            out["categories"] = list(self.categories or ())
        else:
            out["lower"] = self.lower
            out["upper"] = self.upper
        return out


@dataclass(frozen=True)
class SearchSpace:
    """An ordered, non-empty collection of :class:`ParamSpec`."""

    params: tuple[ParamSpec, ...]

    def __post_init__(self) -> None:
        params = tuple(self.params)
        if len(params) == 0:
            raise ValueError("search space must contain at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in search space")
        object.__setattr__(self, "params", params)

    @property
    def dimension(self) -> int:
        return len(self.params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def __iter__(self) -> Iterator[ParamSpec]:
        return iter(self.params)

    def __getitem__(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {"params": [p.to_dict() for p in self.params]}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SearchSpace":
        if "params" not in doc:
            raise ValueError("space document missing 'params'")
        specs = []
        for entry in doc["params"]:
            specs.append(
                ParamSpec(
                    name=entry["name"],
                    kind=entry["kind"],
                    lower=entry.get("lower"),
                    upper=entry.get("upper"),
                    categories=tuple(entry["categories"]) if "categories" in entry else None,
                )
            )
        return cls(tuple(specs))


@dataclass(frozen=True)
class Config:
    """A concrete assignment of one value to every parameter of a space."""

    values: dict[str, Any]

    def __getitem__(self, name: str) -> Any:
        return self.values[name]


def load_space(path: str) -> SearchSpace:
    """Read a search space from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return SearchSpace.from_dict(json.load(fh))


def _decode_one(u: float, spec: ParamSpec) -> Any:
    if spec.kind == "continuous":
        return spec.lower + u * (spec.upper - spec.lower)
    if spec.kind == "log-continuous":
        lo = math.log10(spec.lower)
        hi = math.log10(spec.upper)
        return 10.0 ** (lo + u * (hi - lo))
    if spec.kind == "integer":
        lo = int(spec.lower)
        hi = int(spec.upper)
        v = int(math.floor(lo + u * (hi - lo + 1)))
        return min(max(v, lo), hi)
    # categorical: equal-width bins, u == 1.0 folds into the last bin
    c = len(spec.categories)
    idx = min(int(math.floor(u * c)), c - 1)
    return spec.categories[idx]


def decode(u: Sequence[float] | np.ndarray, space: SearchSpace) -> Config:
    """Map a point of the unit cube to a concrete configuration.

    Continuous parameters are scaled affinely, log-continuous parameters
    affinely in base-10 log space, integers through equal-width bins
    (floored, clamped to the bounds) and categoricals through equal-width
    bins over their category list.
    """
    arr = np.asarray(u, dtype=float)
    if arr.shape != (space.dimension,):
        raise ValueError(
            f"point has shape {arr.shape}, expected ({space.dimension},)"
        )
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("point coordinates must lie in [0, 1]")
    values = {
        spec.name: _decode_one(float(x), spec) for x, spec in zip(arr, space.params)
    }
    return Config(values)


def sample(space: SearchSpace, rng: np.random.Generator) -> np.ndarray:
    """Draw one uniform point from the unit cube of ``space``."""
    return rng.random(space.dimension)
