"""Domain types and the posterior-draw CSV format.

Shared by the samplers, the selectors, the simulation harness and the CLI.
All types are frozen dataclasses holding read-only numpy arrays, so
instances are safe to share across threads; the only side-effecting
operations are the file writers.

The T x p draw matrices and the design are the largest arrays the package
holds, so each is held once: :class:`PosteriorDraws` and :class:`Dataset`
keep an array of the field's dtype without a copy, read-only in place,
and a chain's output arrays become its draws. :func:`save_draws` joins
the draws a block of rows at a time, never as a whole table, and
:func:`load_draws` parses one table whose column slices become the draws.

Variable indices are 1-based wherever a user sees them (truth sets,
selection results, CSV column names ``beta_1..beta_p``), matching the
draw-file header vocabulary. Draw files are plain CSV so that chains
produced by external samplers can be fed straight into the selectors.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

HORSESHOE = "horseshoe"
SPIKE_SLAB = "spike-slab"
PRIOR_FAMILIES = (HORSESHOE, SPIKE_SLAB)

#: Selector tags understood by the selection module and the CLI.
METHODS = ("s2m", "2m", "hppm", "mpm", "cs", "ht")
#: Symbolic tuning rule: b = 2 * posterior median of the sigma2 draws.
TWO_SIGMA_HAT = "2sigma2"

# One float64 survives a text round trip at 17 significant digits.
_FLOAT_FMT = "%.17g"


class InvariantError(ValueError):
    """A domain object or file violates one of its documented invariants."""


def _rng(seed: Union[int, SeedSequence], *, bits=Philox) -> Generator:
    """The package's one seed rule: a ``bits`` generator seeded through
    SeedSequence. Chains and simulated data keep Philox for byte stability;
    the Monte Carlo check passes PCG64DXSM, which fills uniforms faster.

    Distinct seeds or spawned sequences give independent streams, a repeated
    seed the same bits. Any seed but a SeedSequence must be a :data:`_SEED`.
    """
    return Generator(bits(seed if isinstance(seed, SeedSequence)
                          else SeedSequence(_checked(seed, "seed", _SEED))))


#: Bytes of float64 one block of a blocked pass over a draw matrix spans:
#: the value checks and the draw-file parser here, the selectors'
#: temporaries in :mod:`~shrinksel.selection`.
_BLOCK_BYTES = 1 << 18


def _block_len(across: int) -> int:
    """Indices per block when each index stands for ``across`` float64s."""
    return max(2, _BLOCK_BYTES // (8 * across))


def _blocks(n: int, across: int) -> list[slice]:
    """Slices covering ``range(n)`` in blocks of :func:`_block_len` indices.

    No block is one index wide unless ``n`` is 1: numpy sums a one-column
    block pairwise but a wider one row by row, as it does the whole
    matrix, so a lone last column would change the bits of a column mean.
    """
    bounds = list(range(0, n, _block_len(across))) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _csv_lines(*blocks: np.ndarray) -> Iterable[str]:
    """Rows of 2-D arrays, side by side, as CSV lines of ``_FLOAT_FMT``
    cells.

    One format string per row, applied to Python floats, writes the same
    text as formatting each float64 scalar, faster. The arrays are joined
    one block of :func:`_blocks` rows at a time, so a writer holds a block
    and one row's text, not a joined table.
    """
    width = sum(b.shape[1] for b in blocks)
    row_fmt = ",".join([_FLOAT_FMT] * width)
    for rows in _blocks(len(blocks[0]), width):
        # A generator of its own lets the block go before the next is made.
        yield from (row_fmt % tuple(row.tolist())
                    for row in np.hstack([b[rows] for b in blocks]))


def atomic_write_lines(path: str, lines: Iterable[str]) -> None:
    """Write ``lines``, each ended by a newline, to ``path`` atomically.

    Lines go to a temporary file in the same directory as they are
    produced, then the file is renamed onto ``path``; on any error the
    temporary file is removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp_", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _map_jobs(fn: Callable, items: Iterable, jobs: int) -> list:
    """``[fn(i) for i in items]``, in order, on at most ``jobs`` processes.

    Starts no more workers than there are items and runs in this process
    when that leaves one; otherwise ``fn`` and the items must pickle.
    """
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(i) for i in items]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _checked_array(name: str, value, dtype, shape: tuple,
                   ok: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                   refusal: str = "") -> np.ndarray:
    """``value`` as a ``dtype`` array of ``shape``, checked, still writable.

    An ndarray that already has the dtype is kept, not copied. Anything
    else is converted through float64, so a fractional ``z`` is refused
    rather than truncated. Every entry must be finite and pass ``ok`` if
    given, else ``f"{name} {refusal}"`` is raised; the checks run over row
    blocks, so they hold one block's booleans at a time.
    """
    if isinstance(value, np.ndarray) and value.dtype == dtype:
        arr = value
    else:
        arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise InvariantError(f"{name} has shape {arr.shape}, expected {shape}")
    blocks = _blocks(shape[0], math.prod(shape[1:]))
    if not all(np.isfinite(arr[rows]).all() for rows in blocks):
        raise InvariantError(f"{name} contains non-finite entries")
    if ok is not None and not all(ok(arr[rows]).all() for rows in blocks):
        raise InvariantError(f"{name} {refusal}")
    return arr.astype(dtype, copy=False)


def _set_read_only(obj, **arrays: np.ndarray) -> None:
    """Freeze ``arrays`` as fields of ``obj`` once all its fields pass."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _positive_int(value, where: str, least: int = 1) -> int:
    """``value`` as an integer >= ``least``, else InvariantError naming
    ``where``: the one rule for a 1-based index or a count. Text must spell
    an integer; a number must be whole and not a bool (``2.0`` passes,
    ``1.5`` and NaN do not)."""
    try:
        number = int(value)
        whole = isinstance(value, str) or number == value
    except (TypeError, ValueError, OverflowError):
        number, whole = 0, False
    if isinstance(value, (bool, np.bool_)) or not whole or number < least:
        raise InvariantError(
            f"{where}: expected an integer >= {least}, got {value!r}")
    return number


def _number_or_text(text: str):
    """A flag's text as a float, or as itself when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def _number_list(text: str) -> list:
    """A flag's comma list, each item read by :func:`_number_or_text`."""
    return [_number_or_text(t) for t in text.split(",") if t.strip()]


class _Kind(NamedTuple):
    """What one config field takes: the values that pass ``ok``, kept as
    ``store`` gives them. ``parse`` reads a flag's text as a value; None
    marks a true/false field, set by ``--x`` and ``--no-x``."""

    rule: str  # the domain, as messages state it
    ok: Callable[[object], bool]
    store: Callable = lambda v: v
    parse: Optional[Callable[[str], object]] = float


def _real(rule: str, ok: Callable[[float], bool]) -> _Kind:
    """A finite real number, not a bool, that passes ``ok``; kept as a float."""
    return _Kind(rule, lambda v: (isinstance(v, float) or isinstance(
        v, numbers.Real) and not isinstance(v, bool)) and math.isfinite(v)
        and ok(v), float)


def _reals(item: _Kind, rule: str, size_ok: Callable = lambda n: True,
           lone: bool = False) -> _Kind:
    """A list of ``item`` values whose length passes ``size_ok``, kept as a
    tuple of floats; with ``lone``, one value alone too, as a 1-tuple."""
    return _Kind(rule, lambda v: lone and item.ok(v) or not isinstance(
        v, str) and size_ok(len(v)) and all(map(item.ok, v)),
        lambda v: (float(v),) if lone and item.ok(v) else tuple(map(float, v)),
        _number_list)


def _count(least: int) -> _Kind:
    """A whole number >= ``least`` by :func:`_positive_int`, but not text."""
    return _Kind(f"an integer >= {least}", lambda v: not isinstance(v, str),
                 partial(_positive_int, where="", least=least), int)


#: The kinds of config field. Each config dataclass names its fields'
#: kinds in ``_KINDS``; the CLI takes its flags' types from them, and the
#: shrinkage grid, the response generator and the seeds check by them.
_COUNT = _count(1)
_COUNT_0 = _count(0)
_SEED = _Kind("an integer in [0, 2**64)",
              lambda v: _COUNT_0.ok(v) and _COUNT_0.store(v) < 2 ** 64,
              _COUNT_0.store, int)
_POSITIVE_REAL = _real("a finite number > 0", lambda v: v > 0)
_NON_NEGATIVE_REAL = _real("a finite number >= 0", lambda v: v >= 0)
_UNIT_INTERVAL = _real("a number in (0, 1)", lambda v: 0 < v < 1)
_NON_ZERO_REAL = _real("a finite non-zero number", lambda v: v != 0)
_GRID_RHO = _real("a number in [0, 1)", lambda v: 0 <= v < 1)
_GRID_A = _real("a finite number >= 1", lambda v: v >= 1)
_FLAG = _Kind("true or false", lambda v: isinstance(v, bool), parse=None)
_PRIOR_FAMILY = _Kind(f"one of {PRIOR_FAMILIES}",
                      lambda v: v in PRIOR_FAMILIES, parse=str)
#: A finite number > 0, or none: None, or the word "none" or "off".
_OPTIONAL_POSITIVE_REAL = _Kind(
    f"{_POSITIVE_REAL.rule} or none",
    lambda v: _POSITIVE_REAL.ok(v) or v is None
    or isinstance(v, str) and v.lower() in ("none", "off"),
    lambda v: float(v) if _POSITIVE_REAL.ok(v) else None, _number_or_text)
#: s2m's b: a number kept as given (a JSON 2 stays 2), or the rule's word.
_S2M_B = _Kind(f"{_POSITIVE_REAL.rule} or {TWO_SIGMA_HAT!r}",
               lambda v: v == TWO_SIGMA_HAT if isinstance(v, str)
               else _POSITIVE_REAL.ok(v), parse=_number_or_text)
_NON_ZERO_REALS = _reals(_NON_ZERO_REAL,
                         f"{_NON_ZERO_REAL.rule} or a non-empty list of them",
                         lambda n: n > 0, lone=True)
_FINITE_REAL = _real("a finite number", lambda v: True)
_FINITE_REALS = _reals(_FINITE_REAL, "a list of finite numbers")
_REAL_PAIR = _reals(_FINITE_REAL, "a pair of numbers, both finite",
                    lambda n: n == 2)


def _checked(value, name: str, kind: _Kind):
    """``value`` as ``kind`` keeps it, else InvariantError naming ``name``."""
    try:
        if kind.ok(value):
            return kind.store(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvariantError(f"{name}: {value!r} is not {kind.rule}")


class _Config:
    """Base of the frozen config dataclasses: keeps each field as the kind
    its class's ``_KINDS`` names stores it, else raises InvariantError
    naming it. Cross-field rules follow in a subclass's ``__post_init__``."""

    def __post_init__(self):
        for name, kind in self._KINDS.items():
            object.__setattr__(self, name,
                               _checked(getattr(self, name), name, kind))


@dataclass(frozen=True)
class Dataset:
    """A Gaussian linear-regression problem: response ``y``, design ``x``.

    ``truth`` optionally records the 1-based indices of the true signal
    columns; it is used only for scoring selections on simulated data.
    A float64 ``y`` or ``x`` ndarray is kept, views included, and made
    read-only in place, so the caller must not write to it through another
    name; other inputs are converted into new arrays.
    """

    y: np.ndarray
    x: np.ndarray
    truth: Optional[frozenset[int]] = None

    def __post_init__(self):
        y_shape, x_shape = np.shape(self.y), np.shape(self.x)
        if len(y_shape) != 1:
            raise InvariantError(f"y must be a vector, got shape {y_shape}")
        if len(x_shape) != 2:
            raise InvariantError(f"x must be a matrix, got shape {x_shape}")
        n, p = x_shape
        if n != y_shape[0]:
            raise InvariantError(
                f"x has {n} rows but y has length {y_shape[0]}")
        if n < 1 or p < 1:
            raise InvariantError("n and p must both be positive")
        y = _checked_array("y", self.y, float, (n,))
        x = _checked_array("x", self.x, float, (n, p))
        if self.truth is not None:
            truth = frozenset(_positive_int(j, "truth") for j in self.truth)
            bad = [j for j in truth if j > p]
            if bad:
                raise InvariantError(
                    f"truth indices {sorted(bad)} outside 1..{p}")
            object.__setattr__(self, "truth", truth)
        _set_read_only(self, y=y, x=x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class PriorSpec(_Config):
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

    _KINDS = {"family": _PRIOR_FAMILY, "tau_upper": _OPTIONAL_POSITIVE_REAL,
              "ig_shape": _POSITIVE_REAL, "ig_scale": _POSITIVE_REAL,
              "ss_beta_a": _POSITIVE_REAL, "ss_beta_b": _POSITIVE_REAL}

    @classmethod
    def horseshoe(cls, **kwargs) -> "PriorSpec":
        return cls(family=HORSESHOE, **kwargs)

    @classmethod
    def spike_slab(cls, **kwargs) -> "PriorSpec":
        return cls(family=SPIKE_SLAB, **kwargs)


class _Latent(NamedTuple):
    """One kind of posterior draw: its field and its draw-file columns."""

    field: str  # PosteriorDraws attribute
    stem: str  # CSV column name, or the stem of stem_1..stem_p
    per_coef: bool  # T x p, one column per coefficient; else length T
    dtype: type
    rule: str  # the value domain, as error messages state it
    ok: Optional[Callable[[np.ndarray], np.ndarray]]  # elementwise domain test


_POSITIVE = ("strictly positive", lambda a: a > 0)
#: The test and refusal of per-draw signal counts, for :func:`_checked_array`.
_WHOLE_COUNTS = (lambda a: (a >= 0) & (a % 1 == 0), "must be counts >= 0")

#: Every kind of draw, in draw-file column order. ``beta`` and ``sigma2``
#: are required; the rest are the optional latents.
_LATENTS = (
    _Latent("beta", "beta", True, float, "finite", None),
    _Latent("sigma2", "sigma2", False, float, *_POSITIVE),
    _Latent("lam", "lambda", True, float, *_POSITIVE),
    _Latent("tau", "tau", False, float, *_POSITIVE),
    _Latent("z", "z", True, np.int64, "0 or 1", lambda a: (a == 0) | (a == 1)),
    _Latent("pi", "pi", False, float, "strictly inside (0, 1)",
            lambda a: (a > 0) & (a < 1)),
)
_REQUIRED = _LATENTS[:2]


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained MCMC draws: ``beta`` is T x p, ``sigma2`` length T.

    Horseshoe chains populate ``lam`` (per-coefficient variance scales,
    T x p) and ``tau`` (global variance scale, length T). Spike-and-slab
    chains populate ``z`` (0/1 inclusion indicators, T x p) and ``pi``
    (exclusion probability, length T). Absent latents are ``None``.

    An ndarray that already has its field's dtype (float64; int64 for
    ``z``) is kept as it is, views included, and made read-only in place:
    the draws share its memory, so the caller must not write to it through
    another name. Other inputs are converted into new arrays.
    """

    beta: np.ndarray
    sigma2: np.ndarray
    lam: Optional[np.ndarray] = None
    tau: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    pi: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.ndim(self.beta) != 2:
            raise InvariantError(
                f"beta must be T x p, got shape {np.shape(self.beta)}")
        t, p = np.shape(self.beta)
        if t < 1 or p < 1:
            raise InvariantError("need at least one draw and one coefficient")
        present = [lat for lat in _LATENTS
                   if lat in _REQUIRED or getattr(self, lat.field) is not None]
        _set_read_only(self, **{lat.field: _checked_array(
            lat.stem, getattr(self, lat.field), lat.dtype,
            (t, p) if lat.per_coef else (t,), lat.ok,
            f"draws must be {lat.rule}") for lat in present})

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
    clustering selectors (empty for the others). Indices in ``selected``
    are 1-based and follow :func:`_positive_int`; the selector's
    signal-count estimate is their number, :attr:`h_mode`.
    """

    method: str
    selected: frozenset[int]
    h_counts: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvariantError(f"unknown method {self.method!r}")
        h_counts = _checked_array("h_counts", self.h_counts, np.int64,
                                  (np.size(self.h_counts),), *_WHOLE_COUNTS)
        object.__setattr__(self, "selected", frozenset(
            _positive_int(j, "selected") for j in self.selected))
        _set_read_only(self, h_counts=h_counts)

    @property
    def h_mode(self) -> int:
        """The signal-count estimate: the number of selected indices."""
        return len(self.selected)


def _present(draws: PosteriorDraws) -> list[tuple[_Latent, np.ndarray]]:
    """Each kind of draw that ``draws`` carries, with its array."""
    return [(lat, getattr(draws, lat.field)) for lat in _LATENTS
            if getattr(draws, lat.field) is not None]


def save_draws(draws: PosteriorDraws, path: str) -> None:
    """Write draws as CSV: one header line, one row per retained iteration.

    Columns are ``beta_1..beta_p, sigma2`` plus whichever of
    ``lambda_1..lambda_p, tau, z_1..z_p, pi`` the draws carry. Floats are
    stored with 17 significant digits, so a save/load round trip is exact.
    """
    present = _present(draws)
    header = ",".join(
        ",".join(f"{lat.stem}_{k}" for k in range(1, draws.p + 1))
        if lat.per_coef else lat.stem for lat, _ in present)
    atomic_write_lines(path, itertools.chain([header], _csv_lines(
        *(a if lat.per_coef else a[:, None] for lat, a in present))))


def _indexed_block(names: dict[str, int], stem: str,
                   path: str) -> Union[slice, list[int], None]:
    """Column positions of ``stem_1..stem_k``, or None if absent entirely:
    a slice when they are consecutive and in order, else a list.

    Two columns for one index (``beta_1`` and ``beta_01``) are refused.
    """
    found = {}
    for name in names:
        if name.startswith(stem + "_"):
            suffix = name[len(stem) + 1:]
            if not (suffix.isascii() and suffix.isdigit()
                    and int(suffix) >= 1):
                raise InvariantError(f"{path}: malformed column name {name!r}")
            k = int(suffix)
            if k in found:
                raise InvariantError(f"{path}: columns {found[k]!r} and "
                                     f"{name!r} both name {stem}_{k}")
            found[k] = name
    if not found:
        return None
    k = max(found)
    missing = sorted(set(range(1, k + 1)) - set(found))
    if missing:
        raise InvariantError(
            f"{path}: columns {stem}_{missing[0]}.. missing (have "
            f"{stem}_1..{stem}_{k} with gaps)")
    pos = [names[found[i]] for i in range(1, k + 1)]
    return slice(pos[0], pos[0] + k) if pos == list(
        range(pos[0], pos[0] + k)) else pos


def _table_lines(fh, path: str, first_line: int,
                 width: Optional[int] = None):
    """(file line, cells) of each non-blank line left in ``fh``, counted from
    ``first_line``. A row without ``width`` cells (or, without it, the first
    row's count) raises :class:`InvariantError` naming its file line."""
    for lineno, line in enumerate(fh, start=first_line):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        width = width or len(cells)
        if len(cells) != width:
            raise InvariantError(f"{path}: row {lineno} has {len(cells)} "
                                 f"cells, expected {width}")
        yield lineno, cells


def _read_rows(fh, path: str, first_line: int,
               header: Optional[list[str]] = None) -> np.ndarray:
    """The numeric table in :func:`_table_lines` of ``fh``, as wide as
    ``header`` if given. A non-numeric cell raises :class:`InvariantError`
    naming its file line. Each row is parsed straight into a block of
    about :data:`_BLOCK_BYTES`, and the blocks are joined once, so at most
    the cell strings of one row and two copies of the table are held."""
    blocks, used = [], 0
    width = None if header is None else len(header)
    for lineno, cells in _table_lines(fh, path, first_line, width):
        if not blocks or used == len(blocks[-1]):
            blocks.append(np.empty((_block_len(len(cells)), len(cells))))
            used = 0
        try:
            blocks[-1][used] = cells
        except ValueError:
            for j, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    column = repr(header[j]) if header else j + 1
                    raise InvariantError(
                        f"{path}: non-numeric cell {cell!r} at row {lineno}, "
                        f"column {column}") from None
            raise
        used += 1
    if not blocks:
        raise InvariantError(f"{path}: no data rows")
    blocks[-1] = blocks[-1][:used]
    return np.concatenate(blocks)


def load_draws(path: str) -> PosteriorDraws:
    """Read a draw CSV written by :func:`save_draws` or an external sampler.

    The header decides which optional latents are present; column order is
    irrelevant. Every latent is a view of the one parsed table, except
    ``z`` (converted to int64) and a block whose columns are out of order
    (copied). Raises :class:`InvariantError` naming the file on missing
    required columns, ragged rows or non-numeric cells (naming the row),
    and on values :class:`PosteriorDraws` refuses.
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

    columns = {}
    for lat in _LATENTS:
        pos = (_indexed_block(names, lat.stem, path) if lat.per_coef
               else names.get(lat.stem))
        if pos is not None:
            columns[lat.field] = table[:, pos]
        elif lat in _REQUIRED:
            label = (f"{lat.stem}_1..{lat.stem}_p columns" if lat.per_coef
                     else f"{lat.stem} column")
            raise InvariantError(f"{path}: required {label} missing")
    try:
        return PosteriorDraws(**columns)
    except InvariantError as exc:
        raise InvariantError(f"{path}: {exc}") from None


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
    atomic_write_lines(path, _csv_lines(arr))
