"""Store behaviour: dense, CSR, virtual; dataset assembly and accounting."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.redistribution import (
    CsrStore,
    Dataset,
    DenseStore,
    FieldSpec,
    VirtualStore,
    make_store,
)


def dense_spec(name="x", constant=True, row_shape=()):
    return FieldSpec(name=name, kind="dense", constant=constant, row_shape=row_shape)


# ------------------------------------------------------------------- dense
def test_dense_vector_roundtrip():
    store = DenseStore(dense_spec(), 10, 20, np.arange(10.0))
    np.testing.assert_array_equal(store.extract(12, 15), [2.0, 3.0, 4.0])
    assert store.range_nbytes(12, 15) == 3 * 8


def test_dense_matrix_rows():
    spec = dense_spec(row_shape=(4,))
    store = DenseStore(spec, 0, 5, np.ones((5, 4)))
    assert store.range_nbytes(0, 2) == 2 * 4 * 8
    assert store.extract(1, 3).shape == (2, 4)


def test_dense_insert():
    store = DenseStore(dense_spec(), 0, 10)
    store.insert(3, 6, np.array([7.0, 8.0, 9.0]))
    np.testing.assert_array_equal(store.data[3:6], [7.0, 8.0, 9.0])


def test_dense_range_validation():
    store = DenseStore(dense_spec(), 10, 20)
    with pytest.raises(ValueError):
        store.extract(5, 15)
    with pytest.raises(ValueError):
        store.insert(15, 25, np.zeros(10))


def test_dense_shape_validation():
    with pytest.raises(ValueError):
        DenseStore(dense_spec(), 0, 5, np.zeros(4))


# --------------------------------------------------------------------- csr
def to_dense(piece):
    """A ``CsrPiece`` (or ``csr_matrix``) as a dense array."""
    return sp.csr_matrix(
        (piece.data, piece.indices, piece.indptr), shape=piece.shape
    ).toarray()


def make_csr_block(lo, hi, n_cols=50, seed=0):
    rng = np.random.default_rng(seed)
    m = sp.random(hi - lo, n_cols, density=0.2, random_state=rng, format="csr")
    return m


def test_csr_extract_and_nbytes():
    m = make_csr_block(0, 10)
    store = CsrStore(FieldSpec("A", "csr"), 0, 10, m)
    piece = store.extract(2, 5)
    np.testing.assert_allclose(to_dense(piece), m[2:5].toarray())
    assert store.range_nbytes(2, 5) > 0
    # nbytes scales with nnz, not just rows:
    empty_rows = sp.csr_matrix((10, 50))
    store2 = CsrStore(FieldSpec("B", "csr"), 0, 10, empty_rows)
    assert store2.range_nbytes(2, 5) < store.range_nbytes(2, 5)


def test_csr_piecewise_assembly():
    m = make_csr_block(0, 10)
    src = CsrStore(FieldSpec("A", "csr"), 0, 10, m)
    dst = CsrStore(FieldSpec("A", "csr"), 0, 10)
    # Insert out of order.
    dst.insert(6, 10, src.extract(6, 10))
    dst.insert(0, 3, src.extract(0, 3))
    dst.insert(3, 6, src.extract(3, 6))
    np.testing.assert_allclose(dst.matrix.toarray(), m.toarray())


def test_extract_returns_read_only_views():
    dense = DenseStore(dense_spec(), 0, 10, np.arange(10.0))
    m = make_csr_block(0, 10)
    csr = CsrStore(FieldSpec("A", "csr"), 0, 10, m)
    for store, block in ((dense, [dense.data]), (csr, [m.data, m.indices])):
        pieces = [store.extract(2, 5), *store.extract_batch([0, 5], [5, 10])]
        for piece in pieces:
            views = [piece] if store is dense else [piece.data, piece.indices]
            for view, arr in zip(views, block):
                assert np.shares_memory(view, arr)
                with pytest.raises(ValueError):
                    view[:1] = 0
            if store is csr:
                with pytest.raises(ValueError):
                    piece.indptr[:1] = 0
    assert dense.data.flags.writeable and m.data.flags.writeable
    # The receiver's copies own their memory.
    dense_dst = DenseStore(dense_spec(), 0, 10)
    csr_dst = CsrStore(FieldSpec("A", "csr"), 0, 10)
    dense_dst.insert_batch([0, 5], [5, 10], dense.extract_batch([0, 5], [5, 10]))
    csr_dst.insert_batch([0, 5], [5, 10], csr.extract_batch([0, 5], [5, 10]))
    assert not np.shares_memory(dense_dst.data, dense.data)
    assembled = csr_dst.matrix
    for arr in (assembled.data, assembled.indices):
        assert arr.flags.writeable
        assert not np.shares_memory(arr, m.data)
        assert not np.shares_memory(arr, m.indices)
    np.testing.assert_array_equal(dense_dst.data, dense.data)
    np.testing.assert_allclose(assembled.toarray(), m.toarray())


def test_csr_incomplete_assembly_detected():
    dst = CsrStore(FieldSpec("A", "csr"), 0, 10)
    dst.insert(0, 3, make_csr_block(0, 3))
    with pytest.raises(RuntimeError, match="gap|missing"):
        _ = dst.matrix


def test_csr_empty_store_rejects_reads():
    dst = CsrStore(FieldSpec("A", "csr"), 0, 10)
    with pytest.raises(RuntimeError):
        _ = dst.matrix


def test_csr_row_count_validated():
    with pytest.raises(ValueError):
        CsrStore(FieldSpec("A", "csr"), 0, 10, make_csr_block(0, 5))


# ----------------------------------------------------------------- virtual
def test_virtual_accounting():
    spec = FieldSpec("blob", "virtual", bytes_per_row=100.0)
    store = VirtualStore(spec, 0, 50)
    assert store.range_nbytes(0, 10) == 1000
    assert store.extract(0, 10) is None
    assert not store.complete
    store.insert(0, 30, None)
    store.insert(30, 50, None)
    assert store.complete
    assert store.bytes_received == 5000


def test_virtual_incomplete_with_gap():
    spec = FieldSpec("blob", "virtual", bytes_per_row=1.0)
    store = VirtualStore(spec, 0, 10)
    store.insert(0, 4, None)
    store.insert(6, 10, None)
    assert not store.complete


def test_virtual_filled_at_creation():
    spec = FieldSpec("blob", "virtual", bytes_per_row=1.0)
    store = VirtualStore(spec, 5, 10, filled=True)
    assert store.complete


def test_empty_block_is_complete():
    spec = FieldSpec("blob", "virtual", bytes_per_row=1.0)
    assert VirtualStore(spec, 5, 5).complete


# ----------------------------------------------------------------- dataset
def cg_like_specs():
    return (
        FieldSpec("A", "csr", constant=True),
        FieldSpec("x", "dense", constant=False),
        FieldSpec("b", "dense", constant=True),
    )


def test_dataset_create_with_data():
    m = make_csr_block(0, 10)
    ds = Dataset.create(
        20, cg_like_specs(), 0, 10,
        data={"A": m, "x": np.zeros(10), "b": np.ones(10)},
    )
    assert ds.field_names() == ["A", "x", "b"]
    assert ds.field_names(constant=True) == ["A", "b"]
    assert ds.field_names(constant=False) == ["x"]


def test_dataset_empty_target_side():
    ds = Dataset.create(20, cg_like_specs(), 10, 20)
    assert isinstance(ds.stores["A"], CsrStore)
    assert isinstance(ds.stores["x"], DenseStore)


def test_dataset_constant_fraction():
    specs = (
        FieldSpec("big", "virtual", constant=True, bytes_per_row=96.6),
        FieldSpec("small", "virtual", constant=False, bytes_per_row=3.4),
    )
    ds = Dataset.create(100, specs, 0, 100, fill_virtual=True)
    const = ds.range_nbytes(0, 100, ds.field_names(constant=True))
    assert const / ds.range_nbytes(0, 100, ds.field_names()) == pytest.approx(0.966)


def test_dataset_extract_insert_roundtrip():
    ds_src = Dataset.create(
        10, (dense_spec("v"),), 0, 10, data={"v": np.arange(10.0)}
    )
    ds_dst = Dataset.create(10, (dense_spec("v"),), 0, 10)
    payloads = ds_src.extract(2, 7, ["v"])
    ds_dst.insert(2, 7, payloads, ["v"])
    np.testing.assert_array_equal(ds_dst.stores["v"].data[2:7], np.arange(2.0, 7.0))


def test_make_store_dispatch_and_validation():
    assert isinstance(make_store(FieldSpec("a", "dense"), 0, 5), DenseStore)
    assert isinstance(make_store(FieldSpec("a", "csr"), 0, 5), CsrStore)
    assert isinstance(
        make_store(FieldSpec("a", "virtual", bytes_per_row=1), 0, 5), VirtualStore
    )
    with pytest.raises(ValueError):
        FieldSpec("a", "bogus")
    with pytest.raises(ValueError):
        FieldSpec("a", "virtual", bytes_per_row=-1)
