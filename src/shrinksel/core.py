"""Domain types and the posterior-draw CSV format.

Shared by the samplers, the selectors, the simulation harness and the CLI.
All types are frozen dataclasses holding read-only numpy arrays, so
instances are safe to share across threads; the only side-effecting
operations are the file writers.

Variable indices are 1-based wherever a user sees them (truth sets,
selection results, CSV column names ``beta_1..beta_p``), matching the
draw-file header vocabulary. Draw files are plain CSV so that chains
produced by external samplers can be fed straight into the selectors.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

HORSESHOE = "horseshoe"
SPIKE_SLAB = "spike-slab"
PRIOR_FAMILIES = (HORSESHOE, SPIKE_SLAB)

#: Selector tags understood by the selection module and the CLI.
METHODS = ("s2m", "2m", "hppm", "mpm", "cs", "ht")

# One float64 survives a text round trip at 17 significant digits.
_FLOAT_FMT = "%.17g"


class InvariantError(ValueError):
    """A domain object or file violates one of its documented invariants."""


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvariantError(f"{name} contains non-finite entries")


def _csv_lines(table: np.ndarray) -> list[str]:
    """Rows of a 2-D float array as CSV lines of ``_FLOAT_FMT`` cells.

    One format string per row, applied to Python floats, writes the same
    text as formatting each float64 scalar, faster. Converting one row at
    a time holds one row's Python floats, not the whole table's.
    """
    row_fmt = ",".join([_FLOAT_FMT] * table.shape[1])
    return [row_fmt % tuple(row.tolist()) for row in table]


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same dir."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp_", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Dataset:
    """A Gaussian linear-regression problem: response ``y``, design ``x``.

    ``truth`` optionally records the 1-based indices of the true signal
    columns; it is used only for scoring selections on simulated data.
    """

    y: np.ndarray
    x: np.ndarray
    truth: Optional[frozenset[int]] = None

    def __post_init__(self):
        y = _readonly(self.y)
        x = _readonly(self.x)
        if y.ndim != 1:
            raise InvariantError(f"y must be a vector, got shape {y.shape}")
        if x.ndim != 2:
            raise InvariantError(f"x must be a matrix, got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise InvariantError(
                f"x has {x.shape[0]} rows but y has length {y.shape[0]}")
        if y.shape[0] < 1 or x.shape[1] < 1:
            raise InvariantError("n and p must both be positive")
        _require_finite("y", y)
        _require_finite("x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if self.truth is not None:
            truth = frozenset(int(j) for j in self.truth)
            bad = [j for j in truth if not 1 <= j <= x.shape[1]]
            if bad:
                raise InvariantError(
                    f"truth indices {sorted(bad)} outside 1..{x.shape[1]}")
            object.__setattr__(self, "truth", truth)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class PriorSpec:
    """Shrinkage-prior family and hyperparameters.

    ``tau_upper`` truncates the global variance scale of the horseshoe
    sampler (default 1; pass ``None`` to disable). ``ig_shape``/``ig_scale``
    parameterize the inverse-gamma priors on the error variance and, for
    the spike-and-slab, on the per-coefficient slab variances.
    ``ss_beta_a``/``ss_beta_b`` are the Beta parameters on the
    spike-and-slab inclusion probability (prior mean a/(a+b)).
    """

    family: str
    tau_upper: Optional[float] = 1.0
    ig_shape: float = 1.5
    ig_scale: float = 1.5
    ss_beta_a: float = 1.0
    ss_beta_b: float = 15.0

    def __post_init__(self):
        if self.family not in PRIOR_FAMILIES:
            raise InvariantError(
                f"unknown prior family {self.family!r}; expected one of "
                f"{PRIOR_FAMILIES}")
        for name in ("ig_shape", "ig_scale", "ss_beta_a", "ss_beta_b"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvariantError(f"{name} must be strictly positive")
        if self.tau_upper is not None:
            if not (np.isfinite(self.tau_upper) and self.tau_upper > 0):
                raise InvariantError("tau_upper must be strictly positive")

    @classmethod
    def horseshoe(cls, **kwargs) -> "PriorSpec":
        return cls(family=HORSESHOE, **kwargs)

    @classmethod
    def spike_slab(cls, **kwargs) -> "PriorSpec":
        return cls(family=SPIKE_SLAB, **kwargs)


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained MCMC draws: ``beta`` is T x p, ``sigma2`` length T.

    Horseshoe chains populate ``lam`` (per-coefficient variance scales,
    T x p) and ``tau`` (global variance scale, length T). Spike-and-slab
    chains populate ``z`` (0/1 inclusion indicators, T x p) and ``pi``
    (exclusion probability, length T). Absent latents are ``None``.
    """

    beta: np.ndarray
    sigma2: np.ndarray
    lam: Optional[np.ndarray] = None
    tau: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    pi: Optional[np.ndarray] = None

    def __post_init__(self):
        beta = _readonly(self.beta)
        sigma2 = _readonly(self.sigma2)
        if beta.ndim != 2:
            raise InvariantError(f"beta must be T x p, got shape {beta.shape}")
        if sigma2.shape != (beta.shape[0],):
            raise InvariantError("sigma2 must have one entry per retained draw")
        if beta.shape[0] < 1 or beta.shape[1] < 1:
            raise InvariantError("need at least one draw and one coefficient")
        _require_finite("beta", beta)
        _require_finite("sigma2", sigma2)
        if np.any(sigma2 <= 0):
            raise InvariantError("sigma2 draws must be strictly positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma2", sigma2)
        t, p = beta.shape
        if self.lam is not None:
            lam = _readonly(self.lam)
            if lam.shape != (t, p):
                raise InvariantError("lambda matrix must match beta's shape")
            _require_finite("lambda", lam)
            if np.any(lam <= 0):
                raise InvariantError("lambda draws must be strictly positive")
            object.__setattr__(self, "lam", lam)
        if self.tau is not None:
            tau = _readonly(self.tau)
            if tau.shape != (t,):
                raise InvariantError("tau must have one entry per retained draw")
            _require_finite("tau", tau)
            if np.any(tau <= 0):
                raise InvariantError("tau draws must be strictly positive")
            object.__setattr__(self, "tau", tau)
        if self.z is not None:
            z = np.array(self.z)
            if z.shape != (t, p):
                raise InvariantError("z matrix must match beta's shape")
            if not np.all(np.isin(z, (0, 1))):
                raise InvariantError("z entries must be 0 or 1")
            object.__setattr__(self, "z", _readonly(z, dtype=np.int64))
        if self.pi is not None:
            pi = _readonly(self.pi)
            if pi.shape != (t,):
                raise InvariantError("pi must have one entry per retained draw")
            _require_finite("pi", pi)
            if np.any((pi <= 0) | (pi >= 1)):
                raise InvariantError("pi draws must lie strictly inside (0, 1)")
            object.__setattr__(self, "pi", pi)

    @property
    def t(self) -> int:
        return self.beta.shape[0]

    @property
    def p(self) -> int:
        return self.beta.shape[1]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selector: the chosen index set plus its provenance.

    ``h_counts`` holds the per-draw estimated signal counts for the
    clustering selectors (empty for the others); ``h_mode`` is the
    aggregated signal-count estimate. Indices in ``selected`` are 1-based.
    """

    method: str
    selected: frozenset[int]
    h_counts: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    h_mode: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvariantError(f"unknown method {self.method!r}")
        selected = frozenset(int(j) for j in self.selected)
        if any(j < 1 for j in selected):
            raise InvariantError("selected indices must be >= 1")
        object.__setattr__(self, "selected", selected)
        counts = _readonly(np.asarray(self.h_counts), dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise InvariantError("h_counts must be a vector of counts >= 0")
        object.__setattr__(self, "h_counts", counts)
        if self.h_mode < 0:
            raise InvariantError("h_mode must be nonnegative")
        if self.method in ("s2m", "2m") and len(selected) != self.h_mode:
            raise InvariantError(
                f"{self.method} selected {len(selected)} indices but "
                f"h_mode is {self.h_mode}")


def _header_columns(draws: PosteriorDraws) -> list[str]:
    p = draws.p
    cols = [f"beta_{k}" for k in range(1, p + 1)] + ["sigma2"]
    if draws.lam is not None:
        cols += [f"lambda_{k}" for k in range(1, p + 1)]
    if draws.tau is not None:
        cols.append("tau")
    if draws.z is not None:
        cols += [f"z_{k}" for k in range(1, p + 1)]
    if draws.pi is not None:
        cols.append("pi")
    return cols


def save_draws(draws: PosteriorDraws, path: str) -> None:
    """Write draws as CSV: one header line, one row per retained iteration.

    Columns are ``beta_1..beta_p, sigma2`` plus whichever of
    ``lambda_1..lambda_p, tau, z_1..z_p, pi`` the draws carry. Floats are
    stored with 17 significant digits, so a save/load round trip is exact.
    """
    blocks = [draws.beta, draws.sigma2[:, None]]
    if draws.lam is not None:
        blocks.append(draws.lam)
    if draws.tau is not None:
        blocks.append(draws.tau[:, None])
    if draws.z is not None:
        blocks.append(draws.z.astype(float))
    if draws.pi is not None:
        blocks.append(draws.pi[:, None])
    lines = [",".join(_header_columns(draws))] + _csv_lines(np.hstack(blocks))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _indexed_block(names: dict[str, int], stem: str) -> Optional[list[int]]:
    """Column positions of ``stem_1..stem_k``, or None if absent entirely."""
    found = {}
    for name, pos in names.items():
        if name.startswith(stem + "_"):
            suffix = name[len(stem) + 1:]
            if not suffix.isdigit() or int(suffix) < 1:
                raise InvariantError(f"malformed column name {name!r}")
            found[int(suffix)] = pos
    if not found:
        return None
    k = max(found)
    missing = sorted(set(range(1, k + 1)) - set(found))
    if missing:
        raise InvariantError(
            f"columns {stem}_{missing[0]}.. missing (have {stem}_1..{stem}_{k} "
            f"with gaps)")
    return [found[i] for i in range(1, k + 1)]


def _read_rows(fh, path: str, first_line: int,
               header: Optional[list[str]] = None) -> np.ndarray:
    """The numeric table in the comma-separated lines left in ``fh``.

    Blank lines are skipped. Every row must have as many cells as
    ``header`` (or, without one, as the first row); a ragged or
    non-numeric row raises :class:`InvariantError` naming its file line,
    counted from ``first_line``.
    """
    rows, linenos = [], []
    width = None if header is None else len(header)
    for lineno, line in enumerate(fh, start=first_line):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        width = width or len(cells)
        if len(cells) != width:
            raise InvariantError(f"{path}: row {lineno} has {len(cells)} "
                                 f"cells, expected {width}")
        rows.append(cells)
        linenos.append(lineno)
    if not rows:
        raise InvariantError(f"{path}: no data rows")
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        for lineno, row in zip(linenos, rows):
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    column = repr(header[j]) if header else j + 1
                    raise InvariantError(
                        f"{path}: non-numeric cell {cell!r} at row {lineno}, "
                        f"column {column}") from None
        raise


def load_draws(path: str) -> PosteriorDraws:
    """Read a draw CSV written by :func:`save_draws` or an external sampler.

    The header decides which optional latents are present; column order is
    irrelevant. Raises :class:`InvariantError` on missing required columns,
    ragged rows, or non-numeric cells, naming the offending row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline().strip()
        if not header_line:
            raise InvariantError(f"{path}: empty file")
        header = [c.strip() for c in header_line.split(",")]
        names = {}
        for pos, name in enumerate(header):
            if name in names:
                raise InvariantError(f"{path}: duplicate column {name!r}")
            names[name] = pos
        table = _read_rows(fh, path, 2, header)

    beta_pos = _indexed_block(names, "beta")
    if beta_pos is None:
        raise InvariantError(f"{path}: required beta_1..beta_p columns missing")
    if "sigma2" not in names:
        raise InvariantError(f"{path}: required sigma2 column missing")
    p = len(beta_pos)

    lam_pos = _indexed_block(names, "lambda")
    z_pos = _indexed_block(names, "z")
    for stem, pos in (("lambda", lam_pos), ("z", z_pos)):
        if pos is not None and len(pos) != p:
            raise InvariantError(
                f"{path}: {stem} block has {len(pos)} columns, beta has {p}")

    z = None
    if z_pos is not None:
        zf = table[:, z_pos]
        if not np.all(np.isin(zf, (0.0, 1.0))):
            raise InvariantError(f"{path}: z entries must be 0 or 1")
        z = zf.astype(np.int64)
    return PosteriorDraws(
        beta=table[:, beta_pos],
        sigma2=table[:, names["sigma2"]],
        lam=table[:, lam_pos] if lam_pos is not None else None,
        tau=table[:, names["tau"]] if "tau" in names else None,
        z=z,
        pi=table[:, names["pi"]] if "pi" in names else None,
    )


def load_matrix_csv(path: str) -> np.ndarray:
    """Read a headerless numeric CSV into a 2-D array.

    Used for design/response files. Raises :class:`InvariantError` naming
    the file line of the first malformed row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _read_rows(fh, path, 1)


def save_matrix_csv(arr, path: str) -> None:
    """Write a numeric array as headerless CSV at full precision."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    atomic_write_text(path, "\n".join(_csv_lines(arr)) + "\n")
