import json
import math

import numpy as np
import pytest

from prefetchlab.eval import (
    Predictions,
    canonical_json,
    config_hash,
    geometric_mean,
    metrics_summary,
    precision_at_k,
    read_report,
    recall_at_k,
    split_index,
    write_report,
)
from prefetchlab.errors import DataError


def ps(*rows, width=None):
    """A Predictions record of (timestep, predicted, true_delta) rows."""
    if width is None:
        width = max((len(r[1]) for r in rows), default=0)
    out = Predictions(np.array([r[0] for r in rows], dtype=np.int64),
                      np.zeros((len(rows), width), dtype=np.int64),
                      np.array([len(r[1]) for r in rows], dtype=np.int64),
                      np.array([r[2] for r in rows], dtype=np.int64))
    for i, (_, predicted, _) in enumerate(rows):
        out.predicted[i, : len(predicted)] = predicted
    return out


def test_precision_hand_values():
    sets = ps(
        (0, [1, 2, 3], 2),  # hit
        (1, [4], 4),  # hit
        (2, [1, 2], 9),  # miss
        (3, [], 1),  # empty set counts as miss
    )
    assert precision_at_k(sets) == pytest.approx(0.5)


def test_precision_respects_k():
    sets = ps((0, list(range(20)), 15))
    assert precision_at_k(sets, k=10) == 0.0  # 15 is past the cutoff
    assert precision_at_k(sets, k=16) == 1.0


def test_precision_empty_input_rejected():
    with pytest.raises(DataError):
        precision_at_k(ps())


def test_recall_hand_values():
    # union(true) = {1, 2, 3, 4}; union(pred) = {1, 2, 9} -> overlap {1, 2}
    sets = ps(
        (0, [1, 9], 1),
        (1, [2], 2),
        (2, [], 3),
        (3, [1, 2], 4),
    )
    assert recall_at_k(sets) == pytest.approx(0.5)


def test_recall_respects_k():
    sets = ps((0, [7, 8], 8), (1, [9], 9))
    # k=1 keeps {7, 9}; true union {8, 9}; overlap {9}
    assert recall_at_k(sets, k=1) == pytest.approx(0.5)
    assert recall_at_k(sets, k=2) == pytest.approx(1.0)


def test_recall_empty_input_rejected():
    with pytest.raises(DataError):
        recall_at_k(ps())


def oracle_precision(rows, k):
    return sum(1 for _, predicted, true in rows if true in predicted[:k]) / len(rows)


def oracle_recall(rows, k):
    predicted = {d for _, row, _ in rows for d in row[:k]}
    true = {true for _, _, true in rows}
    return len(predicted & true) / len(true)


EDGE_DELTAS = [-(1 << 63), -(1 << 63) + 1, -1, 0, 1, (1 << 63) - 2, (1 << 63) - 1]


@pytest.mark.parametrize("seed", range(8))
def test_columnar_scoring_equals_per_row_oracle(seed):
    """Precision and recall counted on the arrays equal a per-row Python
    count, exactly: empty and short rows, k below and above the width,
    deltas repeated within and across rows and deltas near +-2**63."""
    rng = np.random.default_rng(seed)
    pool = EDGE_DELTAS + rng.integers(-50, 50, size=8).tolist()
    width = int(rng.integers(1, 13))
    rows = []
    for t in range(int(rng.integers(1, 60))):
        n = int(rng.integers(0, width + 1))
        predicted = [pool[i] for i in rng.integers(0, len(pool), size=n)]
        rows.append((t, predicted, pool[int(rng.integers(0, len(pool)))]))
    sets = ps(*rows, width=width)
    for k in (1, 3, width, width + 5):
        assert precision_at_k(sets, k) == oracle_precision(rows, k)
        assert recall_at_k(sets, k) == oracle_recall(rows, k)


def test_scoring_ignores_slots_past_a_rows_set():
    # slot values past n_predicted never count, even when they equal the truth
    sets = ps((0, [3], 5), (1, [], 0), width=4)
    sets.predicted[:] = [[3, 5, 5, 5], [0, 0, 0, 0]]
    assert precision_at_k(sets) == 0.0
    assert recall_at_k(sets) == 0.0


def test_predictions_select_rows():
    sets = ps((4, [1], 1), (5, [2, 3], 9), (6, [], 7))
    assert len(sets) == 3
    tail = sets[1:]
    assert tail.timestep.tolist() == [5, 6]
    assert tail.n_predicted.tolist() == [2, 0]
    late = sets[sets.timestep >= 5]
    assert late.true_delta.tolist() == [9, 7]
    assert late.predicted.tolist() == [[2, 3], [0, 0]]


def test_metrics_summary_fields():
    sets = ps((0, [5], 5), (1, [5], 6))
    out = metrics_summary(sets, k=10)
    assert out == {
        "precision_at_k": 0.5,
        "recall_at_k": 0.5,
        "k": 10,
        "n_events": 2,
    }


def test_geometric_mean_hand_value():
    assert geometric_mean([0.1, 0.9]) == pytest.approx(math.sqrt(0.09))


def test_geometric_mean_clamps_zero():
    # zeros clamp to 1e-4 instead of collapsing the mean to 0
    val = geometric_mean([0.0, 1.0])
    assert val == pytest.approx(math.sqrt(1e-4))
    with pytest.raises(DataError):
        geometric_mean([])


def test_split_index_exact_fractions():
    assert split_index(10, 0.7) == 7
    assert split_index(100, 0.7) == 70
    assert split_index(11, 0.7) == 7  # floor(7.7)
    assert split_index(1000, 0.3) == 300
    # float 0.7 is not exactly 7/10; make sure we do not inherit that error
    assert split_index(10_000_000, 0.7) == 7_000_000


def test_split_index_rejects_tiny_and_bad_fraction():
    with pytest.raises(DataError):
        split_index(9, 0.7)
    with pytest.raises(ValueError):
        split_index(100, 0.0)
    with pytest.raises(ValueError):
        split_index(100, 1.0)


def test_canonical_json_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    b = canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_config_hash_stability():
    h1 = config_hash({"x": 1, "y": {"z": 2}})
    h2 = config_hash({"y": {"z": 2}, "x": 1})
    assert h1 == h2
    assert len(h1) == 64
    assert h1 != config_hash({"x": 1, "y": {"z": 3}})


def test_write_report_bytes_deterministic(tmp_path):
    payload = {"beta": 1.5, "alpha": {"n": 7}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(p1, payload)
    write_report(p2, {"alpha": {"n": 7}, "beta": 1.5})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")
    assert read_report(p1) == {"alpha": {"n": 7}, "beta": 1.5}


def test_write_report_is_valid_json(tmp_path):
    path = tmp_path / "r.json"
    write_report(path, {"vals": [1, 2, 3], "score": 0.25})
    with open(path) as fh:
        assert json.load(fh) == {"vals": [1, 2, 3], "score": 0.25}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_report_and_hash_refuse_non_finite(tmp_path, value):
    with pytest.raises(ValueError):
        write_report(tmp_path / "r.json", {"x": value})
    with pytest.raises(ValueError):
        config_hash({"x": value})
