"""Tests of the benchmark's own oracles; they do not import posheaf.

    python3 -m pytest perfbench/test_oracles.py
"""

import random

import inputs
import oracles

CIRCLE = {"a": set(), "b": set(), "x": {"a", "b"}, "y": {"a", "b"}}
CIRCLE_APEX = dict(CIRCLE, s={"a", "b", "x", "y"})
POINT = {"p": set()}


def test_four_point_circle():
    counts = oracles.chain_counts(CIRCLE)
    assert counts == [4, 4]
    assert oracles.euler_characteristic(counts) == 0
    for p in (None, 7):
        reduced = oracles.reduced_betti(CIRCLE, CIRCLE, p)
        assert [reduced[0] + 1] + reduced[1:] == [1, 1]


def test_point():
    assert oracles.chain_counts(POINT) == [1]
    assert oracles.reduced_betti(POINT, POINT) == [0]
    assert oracles.predicted_betti(POINT, [("down", "p", 2)]) == [2]
    assert oracles.predicted_betti(POINT, [("sky", "p", 3)]) == [3]


def test_skyscraper_over_a_circle_moves_up_a_degree():
    # the strict downset of s is the circle: reduced Betti (0, 1), so H^2
    assert oracles.predicted_betti(CIRCLE_APEX, [("sky", "s", 2)]) == [0, 0, 2]
    assert oracles.predicted_betti(CIRCLE_APEX, [("down", "s", 1), ("sky", "x", 1)]) == [1, 1]


def test_rank():
    assert oracles.rank([[1, 2], [2, 4]]) == 1
    assert oracles.rank([[1, 2], [3, 4]]) == 2
    assert oracles.rank([[1, 3], [2, 6]], p=7) == 1
    assert oracles.rank([[1, 2], [3, 6 + 7]], p=7) == 1
    assert oracles.rank([[2, 0], [0, 7]], p=7) == 1
    assert oracles.rank([]) == 0


def test_house_chain_counts():
    for apexes, counts in ((True, [401, 2036, 3316, 1680]), (False, [399, 1238, 840])):
        doc = inputs.house_document("Q", apexes)
        below = oracles.document_poset(doc)
        assert oracles.chain_counts(below) == counts
        assert oracles.euler_characteristic(counts) == 1


def test_gauges_are_inverse_pairs():
    rng = random.Random(5)
    for p in (None, 7):
        for n in range(4):
            g, ginv = inputs._random_gauge(rng, n, p)
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert inputs._matmul(g, ginv, p) == eye


def test_prediction_matches_euler_characteristic_of_the_cochains():
    """Two independent routes: the prediction from the direct sum, and
    chain counts weighted by stalk dimension."""
    for doc, summands in inputs.random_spaces(11, 60):
        below = oracles.document_poset(doc)
        p = inputs.BATCH_P if doc["field"] != "Q" else None
        predicted = oracles.predicted_betti(below, summands, p)
        dims = oracles.chain_counts(below, doc["sheaf"]["stalks"])
        assert oracles.euler_characteristic(predicted) == oracles.euler_characteristic(dims)
        assert all(0 <= d <= inputs.MAX_DIM for d in doc["sheaf"]["stalks"].values())


def test_spaces_are_seeded():
    first = [doc for doc, _ in inputs.random_spaces(3, 6)]
    assert first == [doc for doc, _ in inputs.random_spaces(3, 6)]
    assert first != [doc for doc, _ in inputs.random_spaces(4, 6)]
    assert [doc["field"] for doc in first] == ["Q", "GF:7"] * 3


def test_batch_is_the_stream_in_seeded_order():
    stream = inputs.random_spaces(inputs.BATCH_STREAM, 20)
    first = inputs.random_batch(3, 20)
    assert first == inputs.random_batch(3, 20)
    assert first != inputs.random_batch(4, 20)
    assert sorted(map(repr, first)) == sorted(map(repr, stream))
