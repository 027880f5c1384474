"""The StateStore: cell-array conformance and pickling."""

import pickle

import pytest

from repro.state.store import StateStore, make_store


# ----------------------------------------------------------------------
# Conformance: the observable behaviour every StateStore must have
# ----------------------------------------------------------------------
def test_initial_contents_and_geometry():
    store = make_store(8, default=3, name="t")
    assert len(store) == 8
    assert store.size == 8
    assert store.default == 3
    assert store.snapshot() == [3] * 8
    assert all(store[i] == 3 for i in range(8))


def test_set_get_and_negative_index():
    store = make_store(4)
    store[1] = 10
    store[-1] = 20
    assert store[1] == 10
    assert store[3] == 20
    assert store[-3] == 10
    assert store.snapshot() == [0, 10, 0, 20]


def test_out_of_range_write_raises():
    store = make_store(4)
    with pytest.raises(IndexError):
        store[4] = 1
    with pytest.raises(IndexError):
        store[-5] = 1


def test_out_of_range_read_raises():
    store = make_store(4)
    with pytest.raises(IndexError):
        store[4]


def test_load_and_fill():
    store = make_store(4)
    store.load([5, 0, 7, 0])
    assert store.snapshot() == [5, 0, 7, 0]
    store.fill(2)
    assert store.snapshot() == [2, 2, 2, 2]
    store.fill(0)
    assert store.snapshot() == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        store.load([1, 2, 3])  # wrong length


def test_fill_preserves_identity():
    # Externs keep direct references to their stores; clear() must not
    # swap the object out from under them.
    store = make_store(4)
    alias = store
    store.fill(9)
    assert alias[0] == 9


def test_reductions():
    store = make_store(5)
    store.load([0, 4, 0, 1, 3])
    assert store.nonzero_count() == 3
    assert store.sum_values() == 8
    assert store.max_value() == 4


def test_reductions_with_nonzero_default():
    store = make_store(4, default=2)
    store[1] = 0
    store[2] = 5
    assert store.nonzero_count() == 3  # two defaults + the 5
    assert store.sum_values() == 2 + 0 + 5 + 2
    assert store.max_value() == 5


def test_describe_row():
    store = make_store(6, name="probe")
    store[2] = 1
    row = store.describe()
    assert row == {"name": "probe", "size": 6, "default": 0, "populated": 1}


def test_pickle_round_trip():
    # Default list-subclass pickling carries the cells and the
    # size/default/name attributes.
    store = make_store(4, default=1, name="pkl")
    store[1] = 7
    clone = pickle.loads(pickle.dumps(store, protocol=4))
    assert type(clone) is StateStore
    assert clone.snapshot() == [1, 7, 1, 1]
    assert (clone.size, clone.default, clone.name) == (4, 1, "pkl")
    clone.fill(0)
    assert store.snapshot() == [1, 7, 1, 1]


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------
def test_default_backend_is_dense():
    store = make_store(4)
    assert type(store) is StateStore
    assert isinstance(store, list)


def test_negative_size_rejected():
    with pytest.raises(ValueError, match="size"):
        make_store(-1)
