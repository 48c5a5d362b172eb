"""Synthetic multi-label signal generation, dataset file I/O, and splitting.

Dataset CSV schema: header ``id,labels,v0,v1,...,v{l-1}``; the labels field
is a semicolon-joined list of active class indices (``0;3``); values are
decimal floats written with 17 significant digits so the round trip is
exact. A sidecar ``manifest.json`` records num_classes, signal_len,
num_samples, seed, and the full generation spec. ``save_dataset`` refuses,
before it writes anything, a dataset that ``load_dataset`` would reject:
non-finite or misshapen values, misshapen labels, ids holding a comma or
line break, or no samples, classes or values.

Each synthetic class owns a contiguous voxel block carrying a smooth
half-cosine bump; a sample is the sum of its active class bumps plus iid
Gaussian noise. Per-sample random streams are keyed by (master seed,
sample index), so generation order does not matter.

Every file the package writes goes through ``write_atomic``, so a failed
write never leaves a partial file. CSV rows are streamed: written, and the
dataset CSV read, one row of text at a time.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, EmptyDatasetError, ShapeError, \
    check_seed

CSV_NAME = "dataset.csv"
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True, eq=False)
class Sample:
    id: str
    values: np.ndarray  # (signal_len,) float64
    labels: np.ndarray  # (num_classes,) multi-hot ints

    def active_classes(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.labels)]


@dataclass
class Dataset:
    samples: list[Sample]
    num_classes: int
    signal_len: int

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator knobs.

    region_size defaults to signal_len // (2 * num_classes): class regions
    tile the first half of the signal and the rest stays background, so
    activations are localized rather than wall-to-wall.
    """

    num_classes: int
    signal_len: int
    num_samples: int
    seed: int = 0
    region_size: int | None = None
    template_gain: float = 6.0
    noise_sigma: float = 0.3
    label_density: float = 0.25

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.signal_len < 1:
            raise ConfigError(f"signal_len must be >= 1, got {self.signal_len}")
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")
        check_seed(self.seed)
        if self.region_size is None:
            object.__setattr__(self, "region_size",
                               max(1, self.signal_len // (2 * self.num_classes)))
        if self.region_size < 1:
            raise ConfigError(f"region_size must be >= 1, got {self.region_size}")
        if self.num_classes * self.region_size > self.signal_len:
            raise ConfigError(
                f"{self.num_classes} regions of {self.region_size} voxels "
                f"exceed signal length {self.signal_len}"
            )
        if not np.isfinite(self.template_gain):
            raise ConfigError(
                f"template_gain must be finite, got {self.template_gain}")
        if not np.isfinite(self.noise_sigma):
            raise ConfigError(f"noise_sigma must be finite, got {self.noise_sigma}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0 < self.label_density <= self.num_classes:
            raise ConfigError(
                f"label_density must be in (0, num_classes], got {self.label_density}"
            )


def class_templates(spec: SyntheticSpec) -> np.ndarray:
    """Per-class half-cosine bump over the class's voxel block, peak 1."""
    templates = np.zeros((spec.num_classes, spec.signal_len))
    w = spec.region_size
    bump = np.sin(np.pi * (np.arange(w) + 0.5) / w)
    for c in range(spec.num_classes):
        templates[c, c * w : (c + 1) * w] = bump
    return templates


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw ``spec.num_samples`` samples, deterministic under ``spec.seed``."""
    templates = class_templates(spec)
    p_active = spec.label_density / spec.num_classes
    samples = []
    for i in range(spec.num_samples):
        rng = np.random.default_rng([spec.seed, i])
        while True:
            bits = rng.random(spec.num_classes) < p_active
            if bits.any():
                break
        noise = rng.normal(0.0, spec.noise_sigma, spec.signal_len)
        values = spec.template_gain * templates[bits].sum(axis=0) + noise
        samples.append(Sample(f"s{i:05d}", values, bits.astype(np.int64)))
    return Dataset(samples, spec.num_classes, spec.signal_len)


def stack_samples(samples) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(signals, labels, ids) matrices for a sample list or Dataset. Samples
    whose values or labels differ in length raise a ShapeError that names
    the first one."""
    if isinstance(samples, Dataset):
        samples = samples.samples
    if len(samples) == 0:
        raise EmptyDatasetError("no samples to stack")
    try:
        signals = np.array([s.values for s in samples], dtype=np.float64)
        labels = np.array([s.labels for s in samples], dtype=np.float64)
    except ValueError:
        # only once numpy has failed, so a stack that fits pays nothing
        for field in ("values", "labels"):
            want = np.shape(getattr(samples[0], field))
            for s in samples:
                if np.shape(getattr(s, field)) != want:
                    raise ShapeError(f"sample {s.id!r}: {field} have shape "
                                     f"{np.shape(getattr(s, field))}, but sample "
                                     f"{samples[0].id!r} has {want}") from None
        raise
    return signals, labels, [s.id for s in samples]


def write_atomic(path, write) -> None:
    """Write ``path`` whole or not at all. ``write(fh)`` fills a new
    temporary UTF-8 text file with "\n" line ends, whatever the locale, in
    the same directory; it is flushed to disk and then renamed over
    ``path``. If anything fails, the temporary file is removed and ``path``
    keeps its earlier contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline,
    written whole or not at all."""
    def dump(fh):
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_atomic(path, dump)


def write_lines(path, lines) -> None:
    """Each string ``lines`` yields plus a newline, one by one; whole or not at all."""
    write_atomic(path, lambda fh: fh.writelines(line + "\n" for line in lines))


# A comma ends a CSV field; str.splitlines, which load_dataset reads rows
# with, ends a row at any of the others.
_ID_BREAKS = ",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _check_savable(dataset: Dataset) -> None:
    """Raise for any sample ``load_dataset`` would reject once saved."""
    if not dataset.samples:
        raise EmptyDatasetError("no samples to save")
    if dataset.num_classes < 1 or dataset.signal_len < 1:
        raise DataFormatError(
            f"cannot save {dataset.num_classes} classes of length "
            f"{dataset.signal_len}: both must be >= 1")
    for s in dataset.samples:
        if any(c in s.id for c in _ID_BREAKS):
            raise DataFormatError(
                f"sample {s.id!r}: id must not hold a comma or line break")
        if np.shape(s.values) != (dataset.signal_len,):
            raise DataFormatError(
                f"sample {s.id!r}: values have shape {np.shape(s.values)}, "
                f"expected ({dataset.signal_len},)")
        if np.shape(s.labels) != (dataset.num_classes,):
            raise DataFormatError(
                f"sample {s.id!r}: labels have shape {np.shape(s.labels)}, "
                f"expected ({dataset.num_classes},)")
        if not np.isfinite(s.values).all():
            raise DataFormatError(f"sample {s.id!r}: NaN or Inf signal value")


def save_dataset(dataset: Dataset, out_dir, spec: SyntheticSpec | None = None):
    """Write dataset.csv and manifest.json into ``out_dir``; returns the paths.

    A dataset ``load_dataset`` would reject once saved raises
    ``DataFormatError`` (``EmptyDatasetError`` when it has no samples)
    before any file is written."""
    _check_savable(dataset)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / CSV_NAME

    def lines():
        yield "id,labels," + ",".join(f"v{i}" for i in range(dataset.signal_len))
        row = "%s,%s," + ",".join(["%.17g"] * dataset.signal_len)
        for s in dataset.samples:
            labels = ";".join(str(c) for c in s.active_classes())
            yield row % (s.id, labels, *np.asarray(s.values).tolist())
    write_lines(csv_path, lines())
    manifest = {
        "num_classes": dataset.num_classes,
        "signal_len": dataset.signal_len,
        "num_samples": len(dataset),
        "seed": spec.seed if spec is not None else None,
        "spec": asdict(spec) if spec is not None else None,
    }
    manifest_path = out / MANIFEST_NAME
    write_json(manifest_path, manifest)
    return csv_path, manifest_path


def is_json_type(value, kind: type) -> bool:
    """isinstance for decoded JSON: a bool is no number, an int is a float."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind)


def _read_utf8(path, what: str):
    """The lines of the UTF-8 file ``path``, one at a time, newlines universal."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as err:
        raise DataFormatError(f"cannot read {what} {path}: {err}") from None


def read_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file ``path``. A file that cannot be
    read, decoded or parsed, or that holds another JSON value, raises
    ``DataFormatError`` naming ``what`` and the file."""
    try:
        doc = json.loads("".join(_read_utf8(path, what)))
    except json.JSONDecodeError as err:
        raise DataFormatError(f"cannot parse {what} {path}: {err}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{what} {path} must hold a JSON object")
    return doc


def _parse_labels(field: str, num_classes: int | None, lineno: int) -> list[int]:
    if field == "":
        return []
    out = []
    for tok in field.split(";"):
        try:
            c = int(tok)
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad label index {tok!r}") from None
        if c < 0 or (num_classes is not None and c >= num_classes):
            raise DataFormatError(f"line {lineno}: label index {c} out of range")
        if c in out:
            raise DataFormatError(f"line {lineno}: duplicate label index {c}")
        out.append(c)
    return out


def load_dataset(path) -> Dataset:
    """Parse a dataset CSV (or a directory holding dataset.csv + manifest.json)."""
    p = Path(path)
    if p.is_dir():
        p = p / CSV_NAME
    if not p.exists():
        raise DataFormatError(f"dataset file not found: {p}")
    manifest_path = p.parent / MANIFEST_NAME
    num_classes = None
    manifest = None
    if manifest_path.exists():
        manifest = read_json_object(manifest_path, "manifest")
        num_classes = manifest.get("num_classes")
        if not is_json_type(num_classes, int) or num_classes < 1:
            raise DataFormatError(
                f"bad manifest {manifest_path}: num_classes must be a positive "
                f"int, got {num_classes!r}"
            )

    # text.splitlines() row by row: its breaks include every physical line end
    lines = (row for phys in _read_utf8(p, "dataset") for row in phys.splitlines())
    header = next(lines, None)
    if header is None:
        raise EmptyDatasetError(f"empty dataset file: {p}")
    header = header.split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "labels":
        raise DataFormatError(f"line 1: header must start with 'id,labels,v0,...'")
    signal_len = len(header) - 2
    if header[2:] != [f"v{i}" for i in range(signal_len)]:
        raise DataFormatError("line 1: value columns must be named v0..v{l-1}")

    rows = []
    for lineno, line in enumerate(lines, start=2):
        parts = line.split(",")
        if len(parts) != 2 + signal_len:
            raise DataFormatError(
                f"line {lineno}: expected {2 + signal_len} fields, got {len(parts)}"
            )
        label_idx = _parse_labels(parts[1], num_classes, lineno)
        try:
            values = np.array(parts[2:], dtype=np.float64)
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-numeric signal value") from None
        if not np.isfinite(values).all():
            raise DataFormatError(f"line {lineno}: NaN or Inf signal value")
        rows.append((parts[0], label_idx, values))
    if not rows:
        raise EmptyDatasetError(f"dataset file has a header but no rows: {p}")

    if num_classes is None:
        seen = [c for _, idx, _ in rows for c in idx]
        if not seen:
            raise DataFormatError(
                "cannot infer class count: no labels present and no manifest"
            )
        num_classes = max(seen) + 1
    if manifest is not None:
        for key, want in (("signal_len", signal_len), ("num_samples", len(rows))):
            if manifest.get(key) is not None and manifest[key] != want:
                raise DataFormatError(
                    f"manifest {key}={manifest[key]} disagrees with CSV ({want})"
                )

    samples = []
    for sid, label_idx, values in rows:
        labels = np.zeros(num_classes, dtype=np.int64)
        labels[label_idx] = 1
        samples.append(Sample(sid, values, labels))
    return Dataset(samples, num_classes, signal_len)


def split(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then prefix split: (first ~fraction, remainder)."""
    if not 0 < fraction < 1:
        raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")
    n = len(dataset)
    n_first = int(n * fraction)
    if n_first == 0 or n_first == n:
        raise ConfigError(
            f"split of {n} samples at fraction {fraction} leaves one side empty"
        )
    check_seed(seed)
    perm = np.random.default_rng(seed).permutation(n)
    first = [dataset.samples[i] for i in perm[:n_first]]
    second = [dataset.samples[i] for i in perm[n_first:]]
    return (Dataset(first, dataset.num_classes, dataset.signal_len),
            Dataset(second, dataset.num_classes, dataset.signal_len))
