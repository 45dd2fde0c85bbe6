"""Reading and writing the experiment-facing file formats.

Three formats live here:

* **Conditional probability tables** — whitespace-separated ASCII with label
  headers, the format measured tables are published in.  Forward tables are
  row-stochastic: row label ``(n_Q,n_C)``, column label ``(m_Q,k,m_C)``, each
  row the outcome distribution of one initial state.  Backward tables are
  column-stochastic: row label ``(n_Q,n_C)`` now on the evolved cavity range,
  each *column* the final-state distribution of one prepared configuration.
* **Sweep CSV** — one row per bias point with the six estimators, in the
  columns of :data:`~demon_ep.entropy.COLUMNS`; numbers at full double
  precision (17 significant digits), infinities spelled ``inf``, so
  identical runs produce identical bytes.
* **Run configuration** — flat ``key = value`` text; unknown keys are
  rejected rather than ignored.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .channels import ENCODINGS, ERROR_CHANNELS, AtomLevel, ErrorModel
from .entropy import COLUMNS, FORWARD_COLUMNS, EpColumns
from .statespace import (
    SIGMA_TOL, SystemDims, _mass_faults, _report, _warn, gibbs_distribution,
)

__all__ = [
    "ConditionalTable",
    "RunConfig",
    "conditional_from_table",
    "kelvin_to_beta_omega",
    "load_config",
    "parse_table",
    "serialize_table",
    "sweep_csv_text",
    "write_table",
]

ORIENTATIONS = ("forward-rows-initial", "backward-rows-final")

# SI-exact defined values (2019 redefinition)
PLANCK_CONSTANT = 6.62607015e-34  # J s
BOLTZMANN_CONSTANT = 1.380649e-23  # J / K

_CLAMP_TOL = 1e-6


def kelvin_to_beta_omega(temperature_k: float, frequency_ghz: float) -> float:
    """Dimensionless beta * omega = h f / (k_B T) for a mode at f GHz."""
    if temperature_k <= 0 or frequency_ghz <= 0:
        raise ValueError(
            f"temperature and frequency must be positive, got {temperature_k!r} K "
            f"and {frequency_ghz!r} GHz"
        )
    thermal = BOLTZMANN_CONSTANT * temperature_k
    if not (math.isfinite(thermal) and thermal > 0.0):
        raise ValueError(f"k_B T = {thermal!r} J at {temperature_k!r} K is not a usable energy")
    if not math.isfinite(frequency_ghz * 1e9):
        raise ValueError(f"frequency {frequency_ghz!r} GHz overflows in Hz")
    beta = PLANCK_CONSTANT * frequency_ghz * 1e9 / thermal
    if not math.isfinite(beta):
        raise ValueError(
            f"beta*omega = h f / (k_B T) = {beta!r} at {temperature_k!r} K and "
            f"{frequency_ghz!r} GHz is not finite"
        )
    if not beta > 0.0:  # h f underflows: every bias point would run at beta_C = 0
        raise ValueError(
            f"beta*omega = h f / (k_B T) = {beta!r} at {temperature_k!r} K and "
            f"{frequency_ghz!r} GHz is not positive; raise frequency_ghz or lower "
            f"temperature_kelvin"
        )
    return beta


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Labelled conditional-probability matrix in one of the two orientations.

    Stochasticity is checked along the orientation's normalized direction by
    the mass rule of trajectory tables: deviations up to 1e-9 pass, up to 1e-3
    warn (measured tables carry finite statistics), larger ones are rejected.
    The worst row (forward) or column (backward) reports, named by its label.
    """

    row_labels: tuple
    col_labels: tuple
    values: np.ndarray
    orientation: str

    def __post_init__(self) -> None:
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "row_labels", tuple(map(tuple, self.row_labels)))
        object.__setattr__(self, "col_labels", tuple(map(tuple, self.col_labels)))
        if vals.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("values shape does not match labels")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row label")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column label")
        for lab in self.row_labels:
            if len(lab) != 2:
                raise ValueError(f"row label {lab} must have 2 entries")
        for lab in self.col_labels:
            if len(lab) != 3:
                raise ValueError(f"column label {lab} must have 3 entries")
        if not np.all((vals >= 0) & (vals <= 1)):
            raise ValueError("conditional probabilities must be finite and lie in [0, 1]")
        forward = self.orientation == "forward-rows-initial"
        kind, labels = ("row", self.row_labels) if forward else ("column", self.col_labels)
        sums = vals.sum(axis=1 if forward else 0)
        if sums.size:
            worst = int(np.abs(sums - 1.0).argmax())
            what = f"{self.orientation} table {kind} {_label_str(labels[worst])}"
            _report(_mass_faults(sums[worst:worst + 1], 1.0, what).get(0))

    @classmethod
    def from_grid(cls, grid: np.ndarray, orientation: str) -> "ConditionalTable":
        """Table of ``grid[n_Q, n_C, m_Q, k, m_C]``, the inverse of :meth:`to_grid`.

        Every (n_Q, n_C) is a row.  Unpopulated (m_Q=1, k=0) columns are
        omitted, matching the published format of physically encoded runs.
        """
        _, rows, _, _, full = grid.shape
        include_unencodable = bool(np.any(grid[:, :, 1, 0] > 0.0))
        col_labels = tuple(
            (m_q, k, m_c)
            for m_q in range(2)
            for k in range(2)
            if (m_q, k) != (1, 0) or include_unencodable
            for m_c in range(full)
        )
        row_labels = tuple((n_q, n_c) for n_q in range(2) for n_c in range(rows))
        values = np.array([[grid[row + col] for col in col_labels] for row in row_labels])
        return cls(row_labels, col_labels, values, orientation)

    def to_grid(self, dims: SystemDims) -> np.ndarray:
        """Values at ``[n_Q, n_C, m_Q, k, m_C]``; unlisted labels read zero.

        n_C runs over the initial truncation of ``dims`` for forward tables
        (every one needs a row) and over the evolved space for backward ones;
        m_C over the evolved space.  Labels outside those ranges raise.
        """
        what = self.orientation.split("-")[0]
        full = dims.dim_cavity_full
        rows = dims.dim_cavity_init if what == "forward" else full
        cols = np.array(self.col_labels).reshape(-1, 3)  # of objects for a label past int64
        bad = ((cols < 0) | (cols >= (2, 2, full))).any(axis=1)
        if bad.any():
            raise ValueError(f"{what} column label {self.col_labels[bad.argmax()]} out of range")
        initial = np.array(self.row_labels).reshape(-1, 2)
        bad = ((initial < 0) | (initial >= (2, rows))).any(axis=1)
        if bad.any():
            raise ValueError(f"{what} row label {self.row_labels[bad.argmax()]} out of range")
        if what == "forward" and len(initial) < 2 * rows:
            missing = sorted(set(np.ndindex(2, rows)) - set(self.row_labels))
            raise ValueError(f"forward table has no row for initial state {str(missing)[1:-1]}")
        initial, cols = initial.astype(np.intp), cols.astype(np.intp)  # float if empty
        out = np.zeros((2, rows, 2, 2, full))
        out[initial[:, :1], initial[:, 1:], cols[:, 0], cols[:, 1], cols[:, 2]] = self.values
        return out


def _parse_label(token: str) -> tuple | None:
    """``(a,b,...)`` as a tuple of ints, or None if ``token`` is not a state label."""
    if token.startswith("(") and token.endswith(")"):
        with contextlib.suppress(ValueError):
            return tuple(map(int, token[1:-1].split(",")))
    return None


def parse_table(source, orientation: str) -> ConditionalTable:
    """Parse an ASCII conditional table from a path or file-like object.

    Blank lines and ``#`` lines are skipped.  The first content line holds the
    column labels, after a corner token if the first is no state label and the
    first row has no value for it; each later line is a row label and one value
    per column.  Values within 1e-6 outside [0, 1] are clamped with a warning;
    NaN, infinities and the first fault in reading order raise.
    """
    text = source.read() if hasattr(source, "read") else Path(source).read_text()
    rows = [row for row in map(str.split, text.splitlines()) if row and not row[0].startswith("#")]
    if len(rows) < 2:
        raise ValueError("table needs a header line and at least one data row")
    header, data = rows[0], rows[1:]
    if _parse_label(header[0]) is None and len(data[0]) != len(header) + 1:
        header = header[1:]  # drop corner token
    width = len(header)
    if width < 1:
        raise ValueError("header needs at least one column label")
    # each row is read as its length, its label, then its values
    ragged = next((i for i, row in enumerate(data) if len(row) != width + 1), len(data))
    tokens = header + [row[0] for row in data[:ragged]]
    labels = [*map(_parse_label, tokens), None]
    good = labels.index(None)  # labels before the first malformed one
    fault = ValueError(f"malformed state label {tokens[good]!r}") if good < len(tokens) else None
    if good < width:
        raise fault
    col_labels, row_labels = labels[:width], labels[width:good]
    if fault is None and ragged < len(data):
        fault = ValueError(f"row {ragged + 1} has {len(data[ragged]) - 1} values, expected {width}")
    tokens, numbers = [tok for row in data[: len(row_labels)] for tok in row[1:]], []
    try:
        numbers.extend(map(float, tokens))  # keeps the numbers before a bad token
    except ValueError:
        label = row_labels[len(numbers) // width]
        fault = ValueError(f"bad number {tokens[len(numbers)]!r} at row {label}")
    values = np.array(numbers, dtype=float)
    for at in np.flatnonzero(~((values >= 0.0) & (values <= 1.0))).tolist():
        value = numbers[at]
        where = f"row {row_labels[at // width]}, column {col_labels[at % width]}"
        if not math.isfinite(value):
            fault = ValueError(f"non-finite probability {value!r} at {where}")
            break
        if max(-value, value - 1.0) > _CLAMP_TOL:
            fault = ValueError(f"probability {value!r} at {where} outside [0, 1]")
            break
        _warn(f"clamping probability {value!r} at {where}")
        values[at] = min(1.0, max(0.0, value))
    if fault is not None:
        raise fault
    return ConditionalTable(row_labels, col_labels, values.reshape(-1, width), orientation)


def _label_str(label: tuple) -> str:
    return "(" + ",".join(str(int(x)) for x in label) + ")"


def serialize_table(table: ConditionalTable, comment: str | None = None) -> str:
    """Render a conditional table in the ASCII format :func:`parse_table` reads.

    Full double precision, fixed column order — serializing the same table
    twice gives identical text.
    """
    out = io.StringIO()
    if comment:
        for line in comment.splitlines():
            out.write(f"# {line}\n")
    out.write("state " + " ".join(_label_str(c) for c in table.col_labels) + "\n")
    for label, row in zip(table.row_labels, table.values):
        out.write(_label_str(label) + " " + " ".join(format(v, ".17g") for v in row) + "\n")
    return out.getvalue()


def write_table(table: ConditionalTable, path, comment: str | None = None) -> None:
    Path(path).write_text(serialize_table(table, comment))


def conditional_from_table(traj_table) -> ConditionalTable:
    """Conditional-probability view of a simulated trajectory table.

    Forward tables yield the row-stochastic outcome table; backward tables
    the column-stochastic final-state table (with rows covering the evolved
    cavity range, so columns still sum to one).  Built from the conditionals
    the table was weighted from, so the values are exactly what the dynamics
    produced.
    """
    cond = traj_table.conditionals
    if cond is None:
        raise ValueError(
            "trajectory table carries no conditionals (dividing out the priors "
            "would lose the unlabeled backward outcomes)"
        )
    if traj_table.direction == "forward":
        grid = np.transpose(cond, (3, 4, 0, 1, 2))  # as [n_Q, n_C, m_Q, k, m_C]
        return ConditionalTable.from_grid(grid, "forward-rows-initial")
    return ConditionalTable.from_grid(cond, "backward-rows-final")


# ---------------------------------------------------------------------------
# Sweep CSV


def _csv_field(flags: tuple[str, ...]) -> str:
    """A flags tuple as the csv writer writes its field (quoted if it must be)."""
    text = ";".join(flags)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1] if text else ""  # csv writes a lone empty field as ""


def sweep_csv_text(results: EpColumns) -> str:
    """Estimator rows as CSV text with deterministic full-precision numbers.

    ``results`` holds one column per bias point, as ``run_sweep`` and
    ``run_analysis`` return them, written in their order.  Results marked
    forward-only (computed without backward tables) keep only the columns
    computable without the backward protocol.  Numbers are written with
    ``%.17g`` (``inf`` and ``-inf`` spelled out); a NaN in a written column
    raises ``ValueError``.
    A flags field csv might quote goes through the csv writer.
    """
    columns = FORWARD_COLUMNS if results.forward_only else COLUMNS
    numbers = results.numbers[[COLUMNS.index(name) for name in columns[:-1]]]
    nan = np.argwhere(np.isnan(numbers).T)  # (row, column) pairs in row order
    if len(nan):
        raise ValueError(f"{columns[nan[0, 1]]} is NaN at dbeta_tilde {numbers[0, nan[0, 0]]:.17g}")
    fields = {flags: _csv_field(flags) for flags in set(results.flags)}
    line = ",".join(["%.17g"] * len(numbers)) + ",%s\n"
    cells = np.empty((len(results), len(numbers) + 1), dtype=object)
    cells[:, :-1] = numbers.T
    cells[:, -1] = [fields[flags] for flags in results.flags]
    return ",".join(columns) + "\n" + (line * len(cells)) % tuple(cells.ravel().tolist())


# ---------------------------------------------------------------------------
# Run configuration

#: ``eta_<detected>_<true>`` -> its off-diagonal entry of the confusion matrix
_CONFUSION_KEYS = {
    f"eta_{seen.name.lower()}_{true.name.lower()}": (seen, true)
    for seen in AtomLevel
    for true in AtomLevel
    if seen != true
}
#: ``cavity_prep_<target>``, one key per row of the cavity-preparation table
_PREP_KEYS = tuple(f"cavity_prep_{target}" for target in range(len(ErrorModel().cavity_prep)))
_MODEL_FIELDS = tuple(item.name for item in fields(ErrorModel))

#: a ``cavity_prep_<target>`` row: ``(level, probability)`` pairs
PrepRow = tuple[tuple[int, float], ...]

#: the most bias points a configured grid may have.  A sweep peaks at about
#: 0.9 kB per point (physical mode, its result columns and CSV text held at
#: once; tracemalloc over 4,801- and 19,201-point grids), so this largest grid
#: peaks near 0.9 GB.
MAX_GRID_POINTS = 1_000_000


def _probability(key: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{key} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run needs, with the experiment's defaults.

    Every field is a config key of the same name, parsed by its declared type
    (:func:`load_config`).  ``eta_<detected>_<true>`` sets an off-diagonal
    entry of the confusion matrix, whose diagonal takes the rest of its
    column; ``cavity_prep_<target>`` replaces that row of the
    cavity-preparation table.
    """

    temperature_kelvin: float = 2.8
    frequency_ghz: float = 51.0
    dbeta_start: float = -6.0
    dbeta_stop: float = 6.0
    dbeta_step: float = 0.25
    mode: str = "ideal"
    single_error: str | None = None
    idealized_backward: bool = False
    heat_from_atom: bool = True
    sigma_tol: float = SIGMA_TOL
    floor: float | None = None
    out: str | None = None
    eps_prep: float | None = None
    eps_read: float | None = None
    eps_feed: float | None = None
    relax_atom_prob: float | None = None
    relax_cavity_prob: float | None = None
    nbar_atoms: float | None = None
    detect_eff: float | None = None
    eta_e_g: float | None = None
    eta_e_f: float | None = None
    eta_g_e: float | None = None
    eta_g_f: float | None = None
    eta_f_e: float | None = None
    eta_f_g: float | None = None
    cavity_prep_0: PrepRow | None = None
    cavity_prep_1: PrepRow | None = None
    cavity_prep_2: PrepRow | None = None
    cavity_prep_3: PrepRow | None = None

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            # a float field, or the probabilities of a cavity_prep row
            for number in [p for _, p in value] if isinstance(value, tuple) else [value]:
                if isinstance(number, float) and not math.isfinite(number):
                    raise ValueError(f"{item.name} must be finite, got {number!r}")
        if self.mode not in ENCODINGS:
            raise ValueError(f"mode must be one of {tuple(ENCODINGS)}, got {self.mode!r}")
        if self.single_error is not None and self.single_error not in ERROR_CHANNELS:
            raise ValueError(
                f"single_error must be one of {tuple(ERROR_CHANNELS)}, "
                f"got {self.single_error!r}"
            )
        if self.mode == "ideal":
            # keys that set an error channel; confusion and cavity_prep are set entry-wise
            names = ("single_error", *ERROR_CHANNELS.values(), *_CONFUSION_KEYS, *_PREP_KEYS)
            keys = [name for name in names if getattr(self, name, None) is not None]
            if keys:
                raise ValueError(f"ideal mode runs no error channels; remove {', '.join(keys)}")
        if self.dbeta_step <= 0:
            raise ValueError("dbeta_step must be positive")
        if self.dbeta_stop < self.dbeta_start:
            raise ValueError("dbeta_stop must be >= dbeta_start")
        span = (self.dbeta_stop - self.dbeta_start) / self.dbeta_step
        if not math.isfinite(span):
            raise ValueError(
                f"dbeta_start = {self.dbeta_start!r}, dbeta_stop = {self.dbeta_stop!r} and "
                f"dbeta_step = {self.dbeta_step!r} give a grid whose point count is not finite"
            )
        if self.floor is not None and not 0 < self.floor < 1:
            raise ValueError("floor must lie in (0, 1)")
        if self.out == "":  # none, not an empty path, means stdout
            raise ValueError("out must name a file or be none, got ''")
        # a rounding tolerance for equal sigma values, not a bin width
        if not 0.0 <= self.sigma_tol <= _CLAMP_TOL:
            raise ValueError(
                f"sigma_tol must lie in [0, {_CLAMP_TOL:g}], got {self.sigma_tol!r}"
            )
        # computed once here, so a bad temperature or error parameter is a config error
        beta = kelvin_to_beta_omega(self.temperature_kelvin, self.frequency_ghz)
        object.__setattr__(self, "_beta_cavity", beta)
        object.__setattr__(self, "_error_model", self._make_error_model())
        for key in ("dbeta_start", "dbeta_stop"):  # the grid's ends decide for every point
            self.check_bias(getattr(self, key), key)
        if round(span) + 1 > MAX_GRID_POINTS:
            raise ValueError(
                f"dbeta_start = {self.dbeta_start!r}, dbeta_stop = {self.dbeta_stop!r} and "
                f"dbeta_step = {self.dbeta_step!r} give {round(span) + 1:.4g} grid points, "
                f"more than the {MAX_GRID_POINTS:,} a run may hold"
            )

    @property
    def beta_cavity(self) -> float:
        return self._beta_cavity

    def check_bias(self, dbeta: float, key: str) -> None:
        """Reject a bias point at which a Gibbs weight is not finite.

        ``key`` names the config key or flag that set ``dbeta``.  The cavity
        weights are finite at every temperature a config accepts; the qubit
        weight e^(-beta_Q) is monotone in the bias, so the two ends of a grid
        decide for every point between them.
        """
        if not math.isfinite(dbeta):
            raise ValueError(f"{key} must be finite, got {dbeta!r}")
        beta_qubit = self.beta_cavity * (1.0 - dbeta)  # GibbsSpec.from_dbeta's, maybe infinite
        with np.errstate(all="ignore"):
            weights = gibbs_distribution(beta_qubit, 2)
        if not np.isfinite(weights).all():
            raise ValueError(
                f"{key} = {dbeta!r} gives non-finite Gibbs weights: beta_qubit*omega is "
                f"{beta_qubit:.6g} at beta_cavity*omega {self.beta_cavity:.6g} "
                f"(from temperature_kelvin and frequency_ghz)"
            )

    def grid(self) -> np.ndarray:
        count = int(round((self.dbeta_stop - self.dbeta_start) / self.dbeta_step)) + 1
        values = self.dbeta_start + self.dbeta_step * np.arange(count)
        # relative at large |dbeta_stop|, where rounding would drop the end point
        return values[values <= self.dbeta_stop + max(1e-9, 4 * np.spacing(abs(self.dbeta_stop)))]

    def build_error_model(self) -> ErrorModel:
        """The model the mode runs, error-free in ideal mode (shared; do not mutate)."""
        return self._error_model

    def _make_error_model(self) -> ErrorModel:
        base = ErrorModel()
        # the scalar fields RunConfig shares with ErrorModel, where set
        overrides = {
            name: getattr(self, name)
            for name in _MODEL_FIELDS
            if getattr(self, name, None) is not None
        }
        etas = [key for key in _CONFUSION_KEYS if getattr(self, key) is not None]
        if etas:
            conf = base.confusion.copy()
            for key in etas:
                conf[_CONFUSION_KEYS[key]] = _probability(key, getattr(self, key))
            for col in range(3):
                off = sum(conf[r, col] for r in range(3) if r != col)
                if off > 1.0:
                    keys = [key for key, (_, true) in _CONFUSION_KEYS.items() if true == col]
                    raise ValueError(f"{' + '.join(keys)} must lie in [0, 1], got {float(off)!r}")
                conf[col, col] = 1.0 - off
            overrides["confusion"] = conf
        prep = base.cavity_prep.copy()
        for target, key in enumerate(_PREP_KEYS):
            row, levels = getattr(self, key), set()
            if row is None:
                continue
            new_row = np.zeros(prep.shape[1])
            for level, p in row:
                if not 0 <= level < prep.shape[1]:
                    raise ValueError(f"{key} level {level} out of range")
                if level in levels:
                    raise ValueError(f"{key} lists level {level} twice")
                levels.add(level)
                new_row[level] = _probability(key, p)
            if abs(new_row.sum() - 1.0) > _CLAMP_TOL:
                raise ValueError(f"{key} must sum to 1")
            prep[target] = new_row / new_row.sum()
            overrides["cavity_prep"] = prep
        model = replace(base, **overrides) if overrides else base
        if self.mode == "ideal":  # every channel error-free, the diagnostics kept
            return model._idealized()
        if self.single_error is not None:
            model = ErrorModel.single(self.single_error, base=model)
        return model


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(value)


def _parse_prep_row(value: str) -> tuple:
    """Whitespace-separated ``level:probability`` pairs as ``((level, p), ...)``."""
    pairs = (pair.split(":") for pair in value.split())
    return tuple((int(level), float(prob)) for level, prob in pairs)


_PARSERS = {
    "float": float, "str": str, "bool": _parse_bool, "level:probability list": _parse_prep_row
}


def _parse_field(kind: str, value: str):
    """``value`` as the declared type ``kind``; ``none`` clears an optional key."""
    base, _, optional = kind.partition(" | ")
    if optional == "None" and value.lower() == "none":
        return None
    if not value:
        raise ValueError(value)
    return _PARSERS[base](value)


#: config key -> declared type of its value, its RunConfig field's type; a
#: parse error names a cavity_prep row by how it is written
_KEY_KINDS = {
    item.name: item.type.replace("PrepRow", "level:probability list")
    for item in fields(RunConfig)
}


def load_config(path=None, **overrides) -> RunConfig:
    """Load a ``key = value`` configuration file; ``None`` gives defaults.

    Unknown keys are rejected (silent typos in an analysis config are worse
    than a crash), and a value that does not parse as its key's declared
    type is an error naming the line and the key.  A repeated key keeps its
    last value.  ``#`` starts a comment, full-line or trailing.  Keyword
    ``overrides`` (the command-line flags) apply before the config is checked.
    """
    if path is None:
        return RunConfig(**overrides)
    kwargs: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        kind = _KEY_KINDS.get(key)
        if kind is None:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            kwargs[key] = _parse_field(kind, value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: config key {key} needs a value of type {kind}, got {value!r}"
            ) from None
    return RunConfig(**{**kwargs, **overrides})
