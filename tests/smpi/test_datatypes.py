"""Payload sizing and snapshot semantics, incl. property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.redistribution.stores import CsrPiece
from repro.smpi import Blob, copy_payload, payload_nbytes


def test_nbytes_of_arrays():
    assert payload_nbytes(np.zeros(10)) == 80
    assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40
    assert payload_nbytes(np.float64(1.5)) == 8


def test_nbytes_of_scalars_and_strings():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(5) == 8
    assert payload_nbytes(2.5) == 8
    assert payload_nbytes(True) == 8
    assert payload_nbytes(b"abcd") == 4
    assert payload_nbytes("héllo") == len("héllo".encode())


def test_nbytes_of_containers():
    assert payload_nbytes([1, 2]) == 16 + 16
    assert payload_nbytes({"a": 1}) == 16 + len(b"a") + 8
    assert payload_nbytes((np.zeros(2),)) == 16 + 16


def test_blob_declares_size():
    assert payload_nbytes(Blob(12345)) == 12345
    with pytest.raises(ValueError):
        Blob(-1)


def test_opaque_objects_get_token_size():
    class Thing:
        pass

    assert payload_nbytes(Thing()) == 64


def test_copy_payload_snapshots_arrays():
    a = np.arange(4.0)
    c = copy_payload(a)
    a[0] = 99
    assert c[0] == 0.0


def test_copy_payload_nested():
    payload = {"x": np.ones(3), "meta": [np.zeros(2), "s"]}
    c = copy_payload(payload)
    payload["x"][0] = 5
    payload["meta"][0][0] = 5
    assert c["x"][0] == 1.0
    assert c["meta"][0][0] == 0.0
    assert c["meta"][1] == "s"


def test_copy_payload_snapshots_sparse_rows():
    m = sp.random(5, 4, density=0.5, random_state=0, format="csr")
    for payload in (m, CsrPiece(m.data, m.indices, m.indptr, m.shape)):
        c = copy_payload(payload)
        assert type(c) is type(payload) and c.shape == payload.shape
        for name in ("data", "indices", "indptr"):
            assert not np.shares_memory(getattr(c, name), getattr(payload, name))
            np.testing.assert_array_equal(getattr(c, name), getattr(payload, name))


@pytest.mark.parametrize("kind", [sp.csr_matrix, sp.csr_array])
def test_copy_payload_snapshots_sparse_matrices_and_arrays(kind):
    """scipy's sparse arrays are not ``spmatrix`` subclasses; both are
    snapshotted at send time, so a later write to the original is not
    seen by the copy."""
    original = kind(np.arange(6.0).reshape(2, 3))
    c = copy_payload(original)
    assert c is not original and type(c) is kind
    original.data[:] = -1.0
    np.testing.assert_array_equal(c.toarray(), np.arange(6.0).reshape(2, 3))


def test_copy_payload_passes_blobs_through():
    b = Blob(10)
    assert copy_payload(b) is b


@given(
    st.recursive(
        st.one_of(
            st.integers(min_value=-1000, max_value=1000),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=20),
            st.binary(max_size=20),
            st.none(),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=5), children, max_size=4),
            st.tuples(children, children),
        ),
        max_leaves=10,
    )
)
@settings(max_examples=80, deadline=None)
def test_nbytes_nonnegative_and_copy_size_preserving(payload):
    n = payload_nbytes(payload)
    assert n >= 0
    assert payload_nbytes(copy_payload(payload)) == n
