"""Force-trace recording schema, CSV/manifest I/O, and the synthetic dataset generator.

A recording is one letter-writing trial: a timestamped sequence of 3-axis
force samples tagged with user/task/trial/variant labels.  CSV files carry
the mandatory header ``timestamp,fx,fy,fz``; a JSON manifest indexes a
directory of such files.  Because the human dataset behind this toolkit is
private, :func:`synth_dataset` generates labeled traces that stand in for it,
each user with a force signature drawn from the fixed SIGNATURE_RANGES.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptyTraceError,
    SchemaError,
    TraceOrderingError,
)

CSV_HEADER = "timestamp,fx,fy,fz"
VARIANTS = ("raw", "filtered")
DEFAULT_SAMPLE_RATE = 250.0
DEFAULT_TASKS = ("a", "b", "c", "d", "e", "f", "g")


@dataclass(frozen=True)
class ForceTrace:
    """One recorded trial: strictly increasing timestamps and a T x 3 force matrix."""

    timestamps: np.ndarray  # (T,) float32 seconds
    forces: np.ndarray      # (T, 3) float32 newtons
    user_id: str
    task_id: str
    trial_index: int
    variant: str = "raw"
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float32)
        f = np.asarray(self.forces, dtype=np.float32)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "forces", f)
        if ts.ndim != 1 or f.ndim != 2 or f.shape[1] != 3:
            raise DataError(f"expected (T,) timestamps and (T, 3) forces, got {ts.shape} and {f.shape}")
        if len(ts) != len(f):
            raise DataError(f"timestamp/force length mismatch: {len(ts)} vs {len(f)}")
        if len(ts) == 0:
            raise EmptyTraceError("trace has no samples")
        if not np.isfinite(ts).all() or not np.isfinite(f).all():
            raise DataError("trace contains non-finite values")
        if (ts < 0).any():
            raise DataError("negative timestamp in trace")
        if len(ts) > 1 and not (np.diff(ts) > 0).all():
            raise TraceOrderingError("timestamps must strictly increase")
        if self.variant not in VARIANTS:
            raise DataError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for label in (self.user_id, self.task_id):  # labels name trace, checkpoint and report files
            if label in ("", ".", "..") or any(c in label for c in "/\\\0"):
                raise DataError(f"label {label!r} cannot name a file")
        if self.trial_index < 0:
            raise DataError(f"trial_index must be >= 0, got {self.trial_index}")
        if not 0 < self.sample_rate < math.inf:  # a manifest takes its rate from its traces
            raise DataError(f"sample_rate must be finite and positive, got {self.sample_rate!r}")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def key(self) -> tuple[str, str, int, str]:
        return (self.user_id, self.task_id, self.trial_index, self.variant)


def parse_trace_csv(
    data: bytes | str,
    *,
    user_id: str,
    task_id: str,
    trial_index: int,
    variant: str = "raw",
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> ForceTrace:
    """Parse ``timestamp,fx,fy,fz`` CSV text into a ForceTrace.

    Values are ASCII numbers as float() spells them, without '_'.  Raises
    SchemaError for a bad header, DataError for non-numeric or non-finite
    rows (naming the row index), TraceOrderingError for non-increasing
    timestamps and EmptyTraceError for a header-only file.
    """
    # an undecodable byte becomes U+FFFD, which the non-ASCII rule refuses by row
    text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise SchemaError(f"expected header {CSV_HEADER!r}, got {got!r}")
    body = lines[1:]
    if not body:
        raise EmptyTraceError("CSV contains a header but no data rows")
    try:  # every token in one pass; on any failure the loop below raises for the first bad row
        rows = np.fromiter(map(float, ",".join(body).split(",")), np.float64, count=4 * len(body))
        bad = (not (text.isascii() and "_" not in text)
               or set(map(str.count, body, repeat(","))) != {3} or not np.isfinite(rows).all())
    except ValueError:
        bad = True
    for i, line in enumerate(body if bad else ()):
        parts = line.split(",")
        if len(parts) != 4:
            raise SchemaError(f"row {i}: expected 4 columns, got {len(parts)}")
        if not line.isascii() or "_" in line:  # float() takes 1_0 and non-ASCII digits
            raise DataError(f"row {i}: non-numeric value ({line!r} holds '_' or non-ASCII)")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"row {i}: non-numeric value ({exc})") from None
        if not all(math.isfinite(v) for v in vals):
            raise DataError(f"row {i}: non-finite value in {parts}")
    rows = rows.astype(np.float32).reshape(-1, 4)
    return ForceTrace(
        timestamps=rows[:, 0],
        forces=rows[:, 1:4],
        user_id=user_id,
        task_id=task_id,
        trial_index=trial_index,
        variant=variant,
        sample_rate=sample_rate,
    )


def write_trace_csv(trace: ForceTrace) -> bytes:
    """Serialize a trace to CSV bytes; round-trips float32 values exactly."""
    # each value is repr() of the float32 widened to float64, e.g. 0.1f as
    # 0.10000000149011612: not float32's shortest digits, but they parse back bit-exactly
    cols = np.column_stack([trace.timestamps, trace.forces]).astype(np.float64)
    return (CSV_HEADER + "\n" + "%r,%r,%r,%r\n" * len(cols) % tuple(cols.ravel().tolist())).encode()


@contextmanager
def atomic_write(path: Path | str) -> Iterator[BinaryIO]:
    """Binary file handle on a temp file beside `path`, moved onto `path` by
    os.replace when the block ends: readers see the earlier file or the whole
    new one, never a partial one.  If the block raises, the temp file is
    removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path | str, text: str) -> Path:
    """Write text as UTF-8 through atomic_write; returns the path."""
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))
    return Path(path)


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    user: str
    task: str
    trial: int
    variant: str


@dataclass
class DatasetManifest:
    """Index of trace files: one entry per (user, task, trial, variant)."""

    entries: list[ManifestEntry] = field(default_factory=list)
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            key = (e.user, e.task, e.trial, e.variant)
            if key in seen:
                raise DataError(f"duplicate manifest entry for {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> str:
        doc = {
            "sample_rate": self.sample_rate,
            "entries": [
                {"path": e.path, "user": e.user, "task": e.task, "trial": e.trial, "variant": e.variant}
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
            raise SchemaError("manifest must be an object with an 'entries' list")
        entries = []
        for i, raw in enumerate(doc["entries"]):
            if not isinstance(raw, dict):
                raise SchemaError(f"manifest entry {i} is not an object: {raw!r}")
            try:
                entry = ManifestEntry(**{k: raw[k] for k in ("path", "user", "task", "trial",
                                                             "variant")})
            except KeyError as exc:
                raise SchemaError(f"manifest entry {i} lacks {exc}") from None
            strings = (entry.path, entry.user, entry.task, entry.variant)
            if not (all(isinstance(v, str) for v in strings)
                    and isinstance(entry.trial, int) and not isinstance(entry.trial, bool)):
                raise SchemaError(f"manifest entry {i} needs string path, user, task and "
                                  f"variant and an integer trial, got {raw!r}")
            if entry.variant not in VARIANTS:
                raise SchemaError(f"manifest entry {i}: bad variant {entry.variant!r}")
            entries.append(entry)
        rate = doc.get("sample_rate", DEFAULT_SAMPLE_RATE)
        if not (isinstance(rate, (int, float)) and not isinstance(rate, bool)
                and math.isfinite(rate) and rate > 0):
            raise SchemaError(f"manifest sample_rate must be finite and positive, got {rate!r}")
        return cls(entries=entries, sample_rate=float(rate))

    def save(self, path: Path | str) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: Path | str) -> "DatasetManifest":
        p = Path(path)
        if not p.exists():
            raise DataError(f"manifest not found: {p}")
        return cls.from_json(p.read_text(encoding="utf-8"))


class TraceDataset:
    """Immutable labeled collection of force traces."""

    def __init__(self, traces: Iterable[ForceTrace]):
        self._traces = tuple(traces)

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self):
        return iter(self._traces)

    @property
    def traces(self) -> tuple[ForceTrace, ...]:
        return self._traces

    @property
    def users(self) -> list[str]:
        return sorted({tr.user_id for tr in self._traces})

    @property
    def tasks(self) -> list[str]:
        return sorted({tr.task_id for tr in self._traces})

    def subset(self, *, variant: str | None = None, user_id: str | None = None,
               task_id: str | None = None) -> "TraceDataset":
        kept = [
            tr for tr in self._traces
            if (variant is None or tr.variant == variant)
            and (user_id is None or tr.user_id == user_id)
            and (task_id is None or tr.task_id == task_id)
        ]
        return TraceDataset(kept)


def load_dataset(manifest: DatasetManifest, base_dir: Path | str) -> TraceDataset:
    """Load every manifest entry; any unreadable or invalid file aborts with its path."""
    base = Path(base_dir)
    traces = []
    for entry in manifest.entries:
        path = base / entry.path
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from None
        try:
            traces.append(
                parse_trace_csv(
                    raw,
                    user_id=entry.user,
                    task_id=entry.task,
                    trial_index=entry.trial,
                    variant=entry.variant,
                    sample_rate=manifest.sample_rate,
                )
            )
        except DataError as exc:
            raise type(exc)(f"{path}: {exc}") from None
    return TraceDataset(traces)


def save_dataset(dataset: TraceDataset, out_dir: Path | str) -> DatasetManifest:
    """Write one CSV per trace, then manifest.json, into out_dir, each file
    atomically.  The manifest's sample rate is its traces' one rate, and
    each trace has a file of its own."""
    rates = sorted({tr.sample_rate for tr in dataset})
    if len(rates) > 1:
        raise DataError(f"dataset mixes sample rates {rates}; a manifest holds one")
    rate = rates[0] if rates else DEFAULT_SAMPLE_RATE
    files: dict[str, ForceTrace] = {}
    for tr in dataset:
        name = f"{tr.user_id}_{tr.task_id}_{tr.trial_index:04d}_{tr.variant}.csv"
        if name in files:  # '_' joins the labels, so ('u_1', 'a') and ('u', '1_a') meet
            raise DataError(f"traces {files[name].key} and {tr.key} would share the file {name}")
        files[name] = tr
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, tr in files.items():
        with atomic_write(out / name) as fh:
            fh.write(write_trace_csv(tr))
        entries.append(ManifestEntry(path=name, user=tr.user_id, task=tr.task_id,
                                     trial=tr.trial_index, variant=tr.variant))
    manifest = DatasetManifest(entries=entries, sample_rate=rate)
    manifest.save(out / "manifest.json")  # last, so it never lists a partial file
    return manifest


# --- synthetic generation -------------------------------------------------

# per-user force signature: every user draws one value of each parameter
# from its (low, high) range, stratified so that no two users collapse onto
# the same signature
SIGNATURE_RANGES = {
    "press_force": (0.5, 5.0),       # N, mean pen-down force
    "press_variance": (0.01, 0.25),  # N^2, slow pressure wobble
    "tremor_freq": (4.0, 12.0),      # Hz, physiological tremor band
    "tremor_amp": (0.05, 0.6),       # N
    "speed_scale": (0.7, 1.4),       # dimensionless stroke speed
    "noise_std": (0.01, 0.08),       # N, sensor white noise
}


@dataclass(frozen=True)
class SynthConfig:
    """Shape and seed of the synthetic stand-in dataset: who, which letters,
    how many trials of what length.  Each user's force signature is drawn
    from SIGNATURE_RANGES."""

    num_users: int = 5
    tasks: Sequence[str] = DEFAULT_TASKS
    trials_per_task: int = 10
    seed: int = 0
    duration_range: tuple[float, float] = (1.0, 2.0)        # seconds per trial

    def __post_init__(self):
        for name, low in (("num_users", 2), ("trials_per_task", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if not self.tasks:
            raise ConfigError("tasks list is empty")
        if len(set(self.tasks)) != len(self.tasks):
            raise ConfigError("task labels must be unique")
        lo, hi = self.duration_range
        if not (0 < lo <= hi < math.inf):
            raise ConfigError(f"duration_range needs 0 < low <= high < inf, got ({lo}, {hi})")


_N_HARMONICS = 4


class _StrokeTemplate:
    """Deterministic 2-D stroke for one task label: harmonic pen path with
    unit-RMS tangent and curvature.

    Each letter a..z carries its own stroke fundamental (number of direction
    reversals per stroke), which is what makes tasks distinguishable from
    the force dynamics alone; other labels derive a fundamental from a hash.
    """

    def __init__(self, task_id: str):
        digest = hashlib.sha256(task_id.encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        if len(task_id) == 1 and "a" <= task_id <= "z":
            fundamental = 1.0 + 0.5 * (ord(task_id) - ord("a"))
        else:
            fundamental = 1.0 + 3.0 * (digest[8] / 255.0)
        k = fundamental * np.arange(1, _N_HARMONICS + 1, dtype=np.float64)
        self.amp = rng.uniform(-1.0, 1.0, size=(2, _N_HARMONICS)) / np.arange(1, _N_HARMONICS + 1) ** 2
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=(2, _N_HARMONICS))
        self.k = k
        grid = np.linspace(0.0, 1.0, 512)
        tan, curv = self._raw_derivatives(grid)
        self.tan_scale = 1.0 / max(np.sqrt(np.mean(tan**2)), 1e-9)
        self.curv_scale = 1.0 / max(np.sqrt(np.mean(curv**2)), 1e-9)

    def _raw_derivatives(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # u: (n,) progress in [0,1]; returns tangent and curvature, each (n, 2)
        arg = 2.0 * np.pi * self.k[None, None, :] * u[:, None, None] + self.phase[None, :, :]
        dcoef = self.amp * (2.0 * np.pi * self.k)
        ddcoef = self.amp * (2.0 * np.pi * self.k) ** 2
        tangent = np.sum(dcoef[None, :, :] * np.cos(arg), axis=2)
        curvature = -np.sum(ddcoef[None, :, :] * np.sin(arg), axis=2)
        return tangent, curvature

    def derivatives(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tan, curv = self._raw_derivatives(u)
        return tan * self.tan_scale, curv * self.curv_scale


def _smoothstep(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def _draw_user_params(cfg: SynthConfig) -> dict[str, np.ndarray]:
    """Stratified per-user draws: each parameter dimension assigns every user
    its own jittered stratum under a seeded, dimension-specific permutation."""
    rng = np.random.default_rng([cfg.seed, 0xA11CE])
    n = cfg.num_users
    out = {}
    for name, (lo, hi) in SIGNATURE_RANGES.items():
        order = rng.permutation(n).astype(np.float64)
        jitter = rng.uniform(0.2, 0.8, size=n)
        out[name] = lo + (order + jitter) * (hi - lo) / n
    return out


def _synth_trace(cfg: SynthConfig, template: _StrokeTemplate, params: dict[str, float],
                 user_id: str, task_id: str, trial_index: int,
                 rng: np.random.Generator) -> ForceTrace:
    rate = DEFAULT_SAMPLE_RATE
    duration = rng.uniform(*cfg.duration_range)
    n = max(4, int(round(duration * rate)))
    t = np.arange(n, dtype=np.float64) / rate

    speed = params["speed_scale"]
    progress = np.minimum(speed * t / duration, 1.0)
    tangent, curvature = template.derivatives(progress)
    moving = (speed * t / duration < 1.0).astype(np.float64)

    press_mean = params["press_force"]
    press_std = np.sqrt(params["press_variance"])
    # pen-down pressure tracks wall-clock trial time: ramp in, hold, ramp out
    edge = 0.1
    u_time = t / duration
    envelope = _smoothstep(u_time / edge) * _smoothstep((1.0 - u_time) / edge)
    wobble_freq = rng.uniform(0.3, 1.0)
    wobble_phase = rng.uniform(0.0, 2.0 * np.pi)
    press = press_mean * envelope + press_std * np.sin(2.0 * np.pi * wobble_freq * t + wobble_phase)

    tremor_phase = rng.uniform(0.0, 2.0 * np.pi)
    tremor = params["tremor_amp"] * np.sin(
        2.0 * np.pi * params["tremor_freq"] * t + tremor_phase
    )

    noise_std = params["noise_std"]
    noise = rng.normal(0.0, noise_std, size=(n, 3))

    # static friction keeps a floor under the drag force of light pressers
    stiffness = 0.2 + 0.3 * press_mean
    fx = stiffness * (speed * tangent[:, 0] * moving + 0.3 * curvature[:, 0]) + noise[:, 0]
    fy = stiffness * (speed * tangent[:, 1] * moving + 0.3 * curvature[:, 1]) + noise[:, 1]
    fz = press + tremor + noise[:, 2]

    forces = np.stack([fx, fy, fz], axis=1).astype(np.float32)
    return ForceTrace(
        timestamps=(np.arange(n, dtype=np.float64) / rate).astype(np.float32),
        forces=forces,
        user_id=user_id,
        task_id=task_id,
        trial_index=trial_index,
        variant="raw",
        sample_rate=rate,
    )


def synth_dataset(cfg: SynthConfig) -> TraceDataset:
    """Generate a labeled synthetic dataset; a pure function of the config."""
    user_params = _draw_user_params(cfg)
    templates = {task: _StrokeTemplate(task) for task in cfg.tasks}
    width = max(2, len(str(cfg.num_users)))
    traces = []
    for ui in range(cfg.num_users):
        user_id = f"u{ui + 1:0{width}d}"
        params = {name: float(vals[ui]) for name, vals in user_params.items()}
        for tj, task_id in enumerate(cfg.tasks):
            for k in range(cfg.trials_per_task):
                rng = np.random.default_rng([cfg.seed, ui, tj, k])
                traces.append(
                    _synth_trace(cfg, templates[task_id], params, user_id, task_id, k, rng)
                )
    return TraceDataset(traces)
