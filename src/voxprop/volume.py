"""Dense 3D volumes, label sets, and annotation-preparation transforms.

A :class:`Volume3D` is a dense scalar grid indexed ``data[x, y, z]`` with
millimeter spacing and a world-space origin. The element kind decides the
stored dtype:

============  =========  =======================================
kind          dtype      meaning
============  =========  =======================================
intensity     float64    image gray values (guidance contrasts)
probability   float64    per-label membership in [0, 1]
label         uint16     label ids, 0 = background
mask          bool       region membership
============  =========  =======================================

Linear (file) order is x-fastest: voxel ``(x, y, z)`` sits at flat index
``x + nx*y + nx*ny*z``, i.e. ``data.ravel(order="F")``. Memory follows the
same order: every volume's array, and every label's mask in a
:class:`MultiLabelAnnotation`, is stored x-fastest (Fortran-contiguous), so
that ravel is a view, never a copy.

All containers are immutable after construction (their arrays are marked
read-only), so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import ConstantVolume, DimMismatch, NonFiniteInput, TargetTooLarge

ElementKind = Literal["intensity", "label", "mask", "probability"]

ELEMENT_KINDS = ("intensity", "label", "mask", "probability")

_KIND_DTYPE = {
    "intensity": np.float64,
    "probability": np.float64,
    "label": np.uint16,
    "mask": np.bool_,
}

#: Reserved background label id; never a member of a LabelSet.
BACKGROUND_ID = 0


def _whole_ids(values, what: str) -> np.ndarray:
    """`values` as int64, refusing what a cast would change: booleans, fractions."""
    arr = np.asarray(values)
    # numpy reads a list such as [True, 3] as integers, so its items are checked
    bools = not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in values)
    with np.errstate(invalid="ignore"):  # nan, inf and huge floats fail array_equal
        ids = arr.astype(np.int64, copy=False) if arr.dtype.kind in "iuf" or not arr.size else None
    if bools or ids is None or not np.array_equal(ids, arr):
        raise ValueError(f"{what} must be whole numbers, not booleans, strings or fractions")
    return ids


def _as_triple(value, name: str, typ=float) -> tuple:
    out = tuple(typ(v) for v in value)
    if len(out) != 3:
        raise ValueError(f"{name} must have exactly 3 entries, got {len(out)}")
    if not np.isfinite(out).all():
        raise NonFiniteInput(f"{name} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class Volume3D:
    """Dense 3D scalar grid with geometry metadata.

    Parameters
    ----------
    data : array_like, shape (nx, ny, nz)
        Voxel values, indexed ``data[x, y, z]``. Cast to the dtype of
        `kind`; mask input must contain only {0, 1} and label input only
        non-negative integers below 2**16.
    kind : {"intensity", "label", "mask", "probability"}
    spacing : 3 floats, mm per voxel along x, y, z. All finite and > 0.
    origin : 3 finite floats, world coordinates (mm) of voxel (0, 0, 0).

    The stored array is a read-only x-fastest (Fortran-ordered) copy of
    `data`, whatever the input's layout.

    Raises
    ------
    NonFiniteInput
        If `spacing` or `origin` holds NaN or inf.
    """

    data: np.ndarray
    kind: ElementKind = "intensity"
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        self._freeze(copy=True)

    @classmethod
    def _adopt(cls, data: np.ndarray, kind: ElementKind, spacing, origin) -> "Volume3D":
        """Volume over `data` itself, without the defensive copy.

        For x-fastest arrays of the kind's dtype that no other code holds or
        writes to afterwards; any other array is copied into that layout.
        """
        vol = object.__new__(cls)
        for name, value in (("data", data), ("kind", kind), ("spacing", spacing), ("origin", origin)):
            object.__setattr__(vol, name, value)
        vol._freeze(copy=False)
        return vol

    def _freeze(self, copy: bool):
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3D array, got shape {arr.shape}")
        _check_values(arr, self.kind)
        arr = arr.astype(_KIND_DTYPE[self.kind], order="F", copy=copy)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _as_triple(self.spacing, "spacing"))
        object.__setattr__(self, "origin", _as_triple(self.origin, "origin"))
        if min(self.spacing) <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(d) for d in self.data.shape)

    @property
    def n_voxels(self) -> int:
        return int(self.data.size)

    def with_data(self, data, kind: ElementKind | None = None) -> "Volume3D":
        """New volume on the same grid (spacing/origin preserved)."""
        return Volume3D(data, kind or self.kind, self.spacing, self.origin)


def _check_values(arr: np.ndarray, kind: ElementKind) -> None:
    """Raise ValueError unless `arr` has no empty axis and its values fit `kind`."""
    if min(arr.shape) < 1:
        raise ValueError(f"all dims must be >= 1, got {arr.shape}")
    if kind == "mask" and arr.dtype != np.bool_ and not np.isin(arr, (0, 1)).all():
        raise ValueError("mask volumes may contain only 0 and 1")
    if kind == "label" and arr.dtype != np.uint16:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("label volumes require integer data")
        if arr.min() < 0 or arr.max() > np.iinfo(np.uint16).max:
            raise ValueError("label ids must fit in uint16")


def require_same_dims(*volumes) -> tuple[int, int, int]:
    """Raise :class:`DimMismatch` unless all inputs share voxel dimensions."""
    dims = volumes[0].dims
    for v in volumes[1:]:
        if v.dims != dims:
            raise DimMismatch(f"volume dims differ: {dims} vs {v.dims}")
    return dims


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of (label_id, name) pairs.

    Ids are whole numbers (a whole float such as 3.0 loads as 3; booleans,
    strings and fractions are refused), unique, strictly positive, sorted
    ascending, and fit in uint16. Id 0 is reserved for background and is
    never a member. Names are unique, non-empty and free of leading or
    trailing whitespace, line breaks, "/", "#" and NUL, so that each reads
    back unchanged from a labelset file and can name an output file.
    """

    entries: tuple[tuple[int, str], ...]

    def __post_init__(self):
        ids = _whole_ids([i for i, _ in self.entries], "label ids").tolist()
        entries = tuple((i, str(n)) for i, (_, n) in zip(ids, self.entries))
        if not entries:
            raise ValueError("a LabelSet needs at least one label")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate label ids: {ids}")
        names = [n for _, n in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate label names: {names}")
        for n in names:
            if n != n.strip() or len(n.splitlines()) != 1 or any(c in n for c in "/#\0"):
                raise ValueError(
                    f"label name {n!r} must be non-empty, without leading or trailing "
                    "whitespace, line breaks, '/', '#' or NUL"
                )
        if ids != sorted(ids):
            raise ValueError(f"label ids must be sorted ascending: {ids}")
        if ids[0] <= BACKGROUND_ID:
            raise ValueError("label ids must be strictly positive")
        if ids[-1] > np.iinfo(np.uint16).max:
            raise ValueError("label ids must fit in uint16")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "LabelSet":
        """Label set with autogenerated names, for tests and quick scripts."""
        ids = sorted(_whole_ids(list(ids), "label ids").tolist())
        return cls(tuple((i, f"label{i}") for i in ids))

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for _, n in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, label_id) -> bool:
        return int(label_id) in self.ids

    def index(self, label_id: int) -> int:
        """Position of `label_id` in the ordered entries."""
        try:
            return self.ids.index(int(label_id))
        except ValueError:
            raise KeyError(f"label id {label_id} not in label set") from None

    def name(self, label_id: int) -> str:
        return self.entries[self.index(label_id)][1]


def read_labelset(path) -> LabelSet:
    """Parse a labelset file: one ``id<TAB>name`` per line, ``#`` comments."""
    entries = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            # tolerate runs of spaces when no tab is present
            parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"bad labelset line: {raw!r}")
        entries.append((int(parts[0]), parts[1].strip()))
    return LabelSet(tuple(entries))


def write_labelset(labels: LabelSet, path) -> None:
    lines = [f"{i}\t{n}" for i, n in labels.entries]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class MultiLabelAnnotation:
    """Per-voxel sets of label ids, stored as one binary volume per label.

    ``masks[k]`` marks the voxels carrying ``labels.ids[k]``. A voxel's set
    may be empty (unlabeled), a singleton, or larger (conflicting labels
    from overlapping per-structure delineations). ``masks[k]`` obeys a mask
    :class:`Volume3D`'s rules; `spacing` and `origin` must be finite
    (:class:`NonFiniteInput` otherwise). `masks` is stored as a read-only
    copy in which each ``masks[k]`` is x-fastest, like a :class:`Volume3D`.
    """

    labels: LabelSet
    masks: np.ndarray  # bool, shape (m, nx, ny, nz)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        masks = np.asarray(self.masks)
        if masks.ndim != 4:
            raise ValueError(f"masks must be (m, nx, ny, nz), got {masks.shape}")
        if masks.shape[0] != len(self.labels):
            raise ValueError(
                f"{masks.shape[0]} mask volumes for {len(self.labels)} labels"
            )
        _check_values(masks, "mask")
        # C order over (label, z, y, x) is x-fastest within each label
        masks = masks.transpose(0, 3, 2, 1).astype(bool, order="C").transpose(0, 3, 2, 1)
        masks.setflags(write=False)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "spacing", _as_triple(self.spacing, "spacing"))
        object.__setattr__(self, "origin", _as_triple(self.origin, "origin"))

    @classmethod
    def from_label_volume(cls, vol: Volume3D, labels: LabelSet) -> "MultiLabelAnnotation":
        """Singleton annotation from a hard label volume."""
        present = np.unique(vol.data)
        stray = [int(i) for i in present if i != BACKGROUND_ID and i not in labels]
        if stray:
            raise ValueError(f"label volume contains undeclared ids {stray}")
        masks = np.stack([vol.data == i for i in labels.ids])
        return cls(labels, masks, vol.spacing, vol.origin)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(d) for d in self.masks.shape[1:])

    def label_counts(self) -> np.ndarray:
        """Per-voxel count of assigned labels, shape (nx, ny, nz)."""
        return self.masks.sum(axis=0, dtype=np.int64)


def _label_counts(a: MultiLabelAnnotation) -> np.ndarray:
    """`a.label_counts()` in the narrowest unsigned dtype that holds them."""
    return a.masks.sum(axis=0, dtype=np.min_scalar_type(len(a.labels)))


# --- operations ---------------------------------------------------------------


def min_max_normalize(v: Volume3D, roi: Volume3D | None = None) -> Volume3D:
    """Affinely map intensities so the roi minimum is 0 and maximum is 1.

    Statistics are computed inside `roi` (default: the whole volume); the
    same affine map is applied everywhere, so voxels outside the roi may
    land outside [0, 1] -- they are deliberately not clamped.

    Raises
    ------
    ConstantVolume
        If the volume has a single value inside the roi.
    """
    if v.kind != "intensity":
        raise ValueError(f"expected an intensity volume, got {v.kind!r}")
    if roi is not None:
        if roi.kind != "mask":
            raise ValueError(f"roi must be a mask volume, got {roi.kind!r}")
        require_same_dims(v, roi)
        inside = v.data[roi.data]
        if inside.size == 0:
            raise ConstantVolume("roi selects no voxels")
    else:
        inside = v.data
    lo = float(inside.min())
    hi = float(inside.max())
    if hi == lo:
        raise ConstantVolume(f"volume is constant ({lo}) inside the roi")
    return v.with_data((v.data - lo) / (hi - lo))


def center_crop(v: Volume3D, target: Sequence[int]) -> Volume3D:
    """Crop to `target` dims, centered per axis.

    `target` holds 3 positive whole numbers; booleans and fractions are
    refused, not truncated. When ``dim - target`` is odd the extra voxel is
    trimmed from the high-index side. The origin shifts so retained voxels
    keep their world coordinates.

    Raises
    ------
    TargetTooLarge
        If any target dim exceeds the source dim.
    """
    target = tuple(_whole_ids(list(target), "target dims").tolist())
    if len(target) != 3 or min(target) < 1:
        raise ValueError(f"target must be 3 positive ints, got {target}")
    dims = v.dims
    if any(t > d for t, d in zip(target, dims)):
        raise TargetTooLarge(f"target {target} exceeds volume dims {dims}")
    start = tuple((d - t) // 2 for d, t in zip(dims, target))
    sl = tuple(slice(s, s + t) for s, t in zip(start, target))
    origin = tuple(o + s * sp for o, s, sp in zip(v.origin, start, v.spacing))
    return Volume3D(v.data[sl], v.kind, v.spacing, origin)


def strip_conflicts(a: MultiLabelAnnotation) -> tuple[Volume3D, Volume3D]:
    """Split an annotation into single-label seeds and a conflict mask.

    Voxels with exactly one label keep it; voxels with several labels
    become background (they are recorded in the conflict mask instead);
    unlabeled voxels stay background.

    Returns
    -------
    seeds : Volume3D[label]
    conflict_mask : Volume3D[mask]
        1 exactly where two or more labels were assigned.
    """
    counts = _label_counts(a)
    seeds = np.zeros_like(a.masks[0], dtype=np.uint16)  # x-fastest, like the masks
    for lab, mask in zip(a.labels.ids, a.masks):
        seeds[mask] = lab
    seeds[counts != 1] = BACKGROUND_ID
    conflicts = counts >= 2
    return (
        Volume3D._adopt(seeds, "label", a.spacing, a.origin),
        Volume3D._adopt(conflicts, "mask", a.spacing, a.origin),
    )
