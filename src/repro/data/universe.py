"""Finite data universes.

A :class:`Universe` enumerates the data domain ``X`` as an array of points in
``R^d``, optionally paired with scalar labels (so supervised losses such as
regression can treat a universe element as an ``(x, y)`` example).
Hypothesis-side computation is vectorized over the whole universe,
matching the ``poly(|X|)`` computational model of Section 4.3 of the
paper; data-side loss evaluations run over the dataset's support, a
sub-universe of at most ``n`` elements (see
:meth:`repro.data.histogram.Histogram.support_view`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import UniverseError
from repro.utils.validation import check_finite_array


@dataclass(frozen=True)
class Universe:
    """An enumerated finite data universe ``X ⊆ R^d``.

    Parameters
    ----------
    points:
        Array of shape ``(size, dim)``; row ``i`` is the feature vector of
        universe element ``i``.
    labels:
        Optional array of shape ``(size,)`` giving a scalar label per
        element, for supervised losses. ``None`` for unlabeled universes.
    name:
        Human-readable identifier used in reports.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = "universe"
    _point_index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = check_finite_array(self.points, "points", ndim=2)
        object.__setattr__(self, "points", points)
        self.points.setflags(write=False)
        if points.shape[0] == 0:
            raise UniverseError("a universe must contain at least one point")
        if self.labels is not None:
            labels = check_finite_array(self.labels, "labels", ndim=1)
            if labels.shape[0] != points.shape[0]:
                raise UniverseError(
                    f"labels has {labels.shape[0]} entries but universe has "
                    f"{points.shape[0]} points"
                )
            object.__setattr__(self, "labels", labels)
            self.labels.setflags(write=False)

    @property
    def size(self) -> int:
        """Number of universe elements ``|X|``."""
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        """Ambient feature dimension ``d``."""
        return self.points.shape[1]

    @property
    def is_labeled(self) -> bool:
        """Whether elements carry supervised labels."""
        return self.labels is not None

    @property
    def log_size(self) -> float:
        """``log |X|`` (natural log), the quantity driving the MW bound."""
        return float(np.log(self.size))

    def __len__(self) -> int:
        return self.size

    def element(self, index: int) -> tuple[np.ndarray, float | None]:
        """Return ``(point, label)`` of element ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(f"universe index {index} out of range [0, {self.size})")
        label = None if self.labels is None else float(self.labels[index])
        return self.points[index], label

    def max_point_norm(self) -> float:
        """Largest L2 norm among universe points (used for scale checks)."""
        return float(np.max(np.linalg.norm(self.points, axis=1)))

    def nearest_index(self, point: np.ndarray) -> int:
        """Index of the universe element closest (L2) to ``point``."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise UniverseError(
                f"point has shape {point.shape}, expected ({self.dim},)"
            )
        distances = np.linalg.norm(self.points - point[None, :], axis=1)
        return int(np.argmin(distances))

    def same_domain(self, other: "Universe") -> bool:
        """Whether two universes describe the same data domain.

        Content comparison (points and labels), not object identity —
        a universe rebuilt from a snapshot is the same domain. The name
        is cosmetic and ignored.
        """
        if self is other:
            return True
        if self.size != other.size or self.dim != other.dim:
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        if not np.array_equal(self.points, other.points):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)

    def with_labels(self, labels: np.ndarray, name: str | None = None) -> "Universe":
        """Return a copy of this universe with ``labels`` attached."""
        return Universe(
            points=np.array(self.points),
            labels=np.asarray(labels, dtype=float),
            name=name or f"{self.name}+labels",
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        labeled = "labeled" if self.is_labeled else "unlabeled"
        return (
            f"Universe(name={self.name!r}, size={self.size}, dim={self.dim}, "
            f"{labeled}, log|X|={self.log_size:.3f})"
        )
