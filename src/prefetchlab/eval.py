"""Precision/recall scoring of prediction sets plus report plumbing.

A `Predictions` record holds, per miss transition, the delta set a model
would prefetch and the delta that actually happened, as array columns.
Precision@k asks how often the true delta was among a row's first k
predictions (an empty set counts as a miss, and a true delta outside a
model's output vocabulary can never match). Recall@k compares the
distinct deltas predicted anywhere against the distinct deltas that
occurred.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True, eq=False)
class Predictions:
    """Prediction sets as columns, one row per transition t -> t+1: `timestep`
    t, `predicted` (n, w) int64 deltas best first, of which the first
    `n_predicted` are the row's set (later slots hold 0), and `true_delta`.
    A slice or a boolean mask selects rows."""

    timestep: np.ndarray
    predicted: np.ndarray
    n_predicted: np.ndarray
    true_delta: np.ndarray

    def __len__(self) -> int:
        return len(self.timestep)

    def __getitem__(self, rows) -> Predictions:
        return Predictions(*(column[rows] for column in vars(self).values()))

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(each row's first k slots, which of them hold a prediction)."""
        if not len(self):
            raise DataError("no prediction sets to score")
        top = self.predicted[:, :k]
        return top, np.arange(top.shape[1]) < self.n_predicted[:, None]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: a sort and a neighbour mask."""
    values = np.sort(values)
    return np.concatenate([values[:1], values[1:][values[1:] != values[:-1]]])


def precision_at_k(p: Predictions, k: int = 10) -> float:
    top, valid = p.top(k)
    return int(np.count_nonzero(((top == p.true_delta[:, None]) & valid).any(axis=1))) / len(p)


def recall_at_k(p: Predictions, k: int = 10) -> float:
    top, valid = p.top(k)
    true = _distinct(p.true_delta)
    # each side is distinct, so an equal neighbour pair is one shared delta
    both = np.sort(np.concatenate([_distinct(top[valid]), true]))
    return int(np.count_nonzero(both[1:] == both[:-1])) / len(true)


def metrics_summary(p: Predictions, k: int = 10) -> dict:
    return {
        "precision_at_k": precision_at_k(p, k),
        "recall_at_k": recall_at_k(p, k),
        "k": k,
        "n_events": len(p),
    }


def geometric_mean(values, lo: float = 1e-4, hi: float = 1.0) -> float:
    """Geometric mean with values clamped into [lo, hi] first."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise DataError("no values to average")
    return float(np.exp(np.mean(np.log(np.clip(arr, lo, hi)))))


def split_index(n: int, fraction: float = 0.7) -> int:
    """Temporal split point: floor(fraction * n), exact in rational arithmetic."""
    from fractions import Fraction  # with decimal, ~4 ms that simulate and report skip
    if n < 10:
        raise DataError(f"stream too short to split: {n} < 10")
    frac = Fraction(str(fraction))
    if not 0 < frac < 1:
        raise DataError(f"split fraction must be in (0, 1), got {fraction}")
    return (n * frac.numerator) // frac.denominator


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Compact, key-sorted JSON; TypeError for a non-JSON value (a date,
    bytes), ValueError for NaN or inf."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    import hashlib  # imported only by the stages that hash

    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_report(path, payload: dict) -> None:
    """Deterministic report file: sorted keys, fixed formatting, one \\n.
    `payload` is dumped as it is: plain JSON values only, NaN or inf raise
    ValueError."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", newline="\n") as f:
        f.write(text)
        f.write("\n")


def read_report(path) -> dict:
    with open(path) as f:
        return json.load(f)
