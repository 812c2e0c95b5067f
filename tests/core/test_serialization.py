"""Tests for serialization, including hypothesis round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.serialization import (
    deserialize,
    make_frame,
    measure,
    payload_nbytes,
    roundtrip,
    serialize,
)


class TestRoundTrip:
    def test_plain_objects(self):
        for obj in [None, 1, 1.5, "text", [1, 2], {"k": (1, 2)}, {1, 2, 3}]:
            assert deserialize(serialize(obj)) == obj

    def test_numpy_array(self):
        array = np.arange(100, dtype=np.float32).reshape(10, 10)
        restored = deserialize(serialize(array))
        assert restored.dtype == array.dtype
        assert np.array_equal(restored, array)

    def test_nested_structure_with_arrays(self):
        obj = {"rollout": {"obs": np.ones((5, 4)), "rew": np.zeros(5)}, "meta": [1, "a"]}
        restored = deserialize(serialize(obj))
        assert np.array_equal(restored["rollout"]["obs"], obj["rollout"]["obs"])
        assert restored["meta"] == [1, "a"]

    def test_result_is_a_copy(self):
        array = np.zeros(4)
        restored = deserialize(serialize(array))
        restored[0] = 99.0
        assert array[0] == 0.0

    def test_large_array(self):
        array = np.random.default_rng(0).integers(0, 256, size=1 << 20, dtype=np.uint8)
        assert np.array_equal(deserialize(serialize(array)), array)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="serialized"):
            deserialize(b"garbage-bytes-here")

    def test_roundtrip_helper_returns_size(self):
        copy, size = roundtrip({"a": 1})
        assert copy == {"a": 1}
        assert size > 0

    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.uint8, np.int32, np.float64]),
            shape=hnp.array_shapes(max_dims=3, max_side=8),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_array_roundtrip(self, array):
        restored = deserialize(serialize(array))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        assert np.array_equal(restored, array, equal_nan=True)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=20),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=5), children, max_size=4),
            max_leaves=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_json_like_roundtrip(self, obj):
        assert deserialize(serialize(obj)) == obj


class TestEdgeCaseArrays:
    """Shapes and layouts the out-of-band fast path must not mangle."""

    def _check(self, array):
        restored = deserialize(serialize(array))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        assert np.array_equal(restored, array)

    def test_empty_array(self):
        self._check(np.empty((0,), dtype=np.float32))

    def test_empty_multidim(self):
        self._check(np.empty((3, 0, 2), dtype=np.int64))

    def test_zero_d_array(self):
        array = np.array(3.5)
        restored = deserialize(serialize(array))
        assert restored.shape == ()
        assert restored == array

    def test_non_contiguous_slice(self):
        base = np.arange(100, dtype=np.float64).reshape(10, 10)
        self._check(base[::2, ::3])

    def test_transposed_view(self):
        self._check(np.arange(12, dtype=np.int32).reshape(3, 4).T)

    def test_fortran_order(self):
        array = np.asfortranarray(np.arange(24, dtype=np.float32).reshape(4, 6))
        restored = deserialize(serialize(array))
        assert np.array_equal(restored, array)

    def test_structured_dtype(self):
        dtype = np.dtype([("position", np.float32, (3,)), ("id", np.int64)])
        array = np.zeros(5, dtype=dtype)
        array["id"] = np.arange(5)
        array["position"][:, 0] = 1.5
        restored = deserialize(serialize(array))
        assert restored.dtype == dtype
        assert np.array_equal(restored["id"], array["id"])
        assert np.array_equal(restored["position"], array["position"])

    def test_deeply_nested_graph(self):
        obj = {
            "layers": [
                {"w": np.ones((4, 4)), "b": np.zeros(4)},
                {"w": np.ones((4, 2)), "b": np.zeros(2)},
            ],
            "meta": ("run", 7, [np.arange(3), {"nested": np.eye(2)}]),
        }
        restored = deserialize(serialize(obj))
        assert np.array_equal(restored["layers"][1]["w"], obj["layers"][1]["w"])
        assert np.array_equal(restored["meta"][2][1]["nested"], np.eye(2))


class TestFrame:
    def test_nbytes_matches_wire_length(self):
        obj = {"a": np.arange(100, dtype=np.float64), "b": [1, 2, 3]}
        frame = make_frame(obj)
        assert frame.nbytes == len(frame.to_bytes()) == len(serialize(obj))

    def test_serialize_into_equals_to_bytes(self):
        obj = [np.ones((7, 3)), {"k": "v"}]
        frame = make_frame(obj)
        dest = bytearray(frame.nbytes)
        written = frame.serialize_into(dest)
        assert written == frame.nbytes
        assert bytes(dest) == frame.to_bytes()

    def test_serialize_into_roundtrips(self):
        obj = {"weights": np.arange(64, dtype=np.float32)}
        frame = make_frame(obj)
        dest = bytearray(frame.nbytes)
        frame.serialize_into(dest)
        restored = deserialize(dest)
        assert np.array_equal(restored["weights"], obj["weights"])

    def test_buffer_views_alias_source_arrays(self):
        """Frames copy nothing: mutating the source before the write shows
        up in the written bytes (the contract senders must respect)."""
        array = np.zeros(16, dtype=np.uint8)
        frame = make_frame(array)
        array[0] = 42
        restored = deserialize(frame.to_bytes())
        assert restored[0] == 42

    def test_frame_of_plain_object_has_no_extra_buffers(self):
        frame = make_frame({"k": [1, 2, 3]})
        assert deserialize(frame.to_bytes()) == {"k": [1, 2, 3]}


class TestZeroCopyDeserialize:
    def test_no_copy_views_are_readonly(self):
        array = np.arange(32, dtype=np.float64)
        blob = serialize(array)
        restored = deserialize(blob, copy=False)
        assert np.array_equal(restored, array)
        assert not restored.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            restored[0] = 1.0

    def test_no_copy_aliases_source_buffer(self):
        array = np.zeros(8, dtype=np.uint8)
        blob = bytearray(serialize(array))
        restored = deserialize(blob, copy=False)
        # Find the array's bytes inside the blob and flip one.
        offset = len(blob) - array.nbytes
        blob[offset] = 7
        assert restored[0] == 7

    def test_copy_mode_is_writable_and_independent(self):
        array = np.zeros(8)
        restored = deserialize(serialize(array), copy=True)
        restored[0] = 5.0
        assert array[0] == 0.0

    def test_no_copy_plain_objects_unaffected(self):
        assert deserialize(serialize({"a": 1}), copy=False) == {"a": 1}


class Subclass(np.ndarray):
    """An ndarray subclass: the array frame would lose its type."""


_DTYPES = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(endianness="?"),
    hnp.unsigned_integer_dtypes(endianness="?"),
    hnp.floating_dtypes(endianness="?"),
    hnp.complex_number_dtypes(endianness="?"),
    hnp.datetime64_dtypes(endianness="?"),
    hnp.timedelta64_dtypes(endianness="?"),
    hnp.byte_string_dtypes(),
    hnp.unicode_string_dtypes(endianness="?"),
)
_ARRAYS = hnp.arrays(
    dtype=_DTYPES, shape=hnp.array_shapes(min_dims=0, min_side=0, max_side=4)
)
_ARRAY_BODIES = st.one_of(
    _ARRAYS,
    st.lists(_ARRAYS, min_size=1, max_size=3),
    st.lists(_ARRAYS, min_size=1, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=6), _ARRAYS, min_size=1, max_size=3),
)


def _arrays_of(body):
    return list(body.values()) if isinstance(body, dict) else (
        [body] if isinstance(body, np.ndarray) else list(body)
    )


def _assert_same_body(restored, body):
    assert type(restored) is type(body)
    if isinstance(body, dict):
        assert list(restored) == list(body)
    for got, want in zip(_arrays_of(restored), _arrays_of(body)):
        assert type(got) is np.ndarray
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class _Registry:
    def __init__(self):
        self.views = []

    def register(self, view):
        self.views.append(view)


class TestArrayFrame:
    """Arrays and containers of them travel as a descriptor plus raw
    bytes; nothing else changes frame."""

    @given(_ARRAY_BODIES)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_copy(self, body):
        frame = make_frame(body)
        assert bytes(frame.segments[0][:6]) == b"XTARR1"
        blob = frame.to_bytes()
        restored = deserialize(blob, copy=True)
        _assert_same_body(restored, body)
        source = np.frombuffer(blob, dtype=np.uint8)
        for array in _arrays_of(restored):
            assert array.flags.writeable
            assert not np.shares_memory(array, source)

    @given(_ARRAY_BODIES)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_views(self, body):
        blob = bytearray(serialize(body))
        registry = _Registry()
        restored = deserialize(blob, copy=False, view_registry=registry)
        _assert_same_body(restored, body)
        arrays = _arrays_of(restored)
        assert len(registry.views) == len(arrays)
        source = np.frombuffer(blob, dtype=np.uint8)
        for array, view in zip(arrays, registry.views):
            assert not array.flags.writeable
            assert view.readonly and view.nbytes == array.nbytes
            if array.size:
                assert np.shares_memory(array, source)
                assert np.shares_memory(array, np.frombuffer(view, dtype=np.uint8))

    @pytest.mark.parametrize("body", [
        np.arange(10.0)[::2],  # not contiguous
        np.asfortranarray(np.ones((3, 2))),
        np.array([{"a": 1}, None], dtype=object),
        np.zeros(3, dtype=[("x", np.int32), ("y", np.float64)]),
        np.arange(6).view(Subclass),
        [np.ones(2), np.arange(4)[::2]],
        [np.ones(2), "not an array"],
        {1: np.ones(2)},  # not str-keyed
        [],
        (),
    ], ids=lambda body: type(body).__name__)
    def test_anything_else_is_pickled_and_round_trips(self, body):
        frame = make_frame(body)
        assert bytes(frame.segments[0][:6]) == b"XTSER1"
        for copy in (True, False):
            restored = deserialize(frame.to_bytes(), copy=copy)
            assert type(restored) is type(body)
            if isinstance(body, np.ndarray):
                assert restored.dtype == body.dtype
                assert np.array_equal(restored, body)
            elif isinstance(body, dict):
                assert np.array_equal(restored[1], body[1])
            else:
                assert len(restored) == len(body)

    def test_truncated_frame_raises(self):
        blob = serialize({"obs": np.arange(16.0)})
        with pytest.raises((ValueError, TypeError)):
            deserialize(blob[:-1])


class TestMeasure:
    def test_array_fast_path_returns_no_frame(self):
        nbytes, frame = measure(np.zeros(10, dtype=np.float64))
        assert nbytes == 80
        assert frame is None

    def test_bytes_fast_path(self):
        assert measure(b"12345") == (5, None)

    def test_generic_object_returns_reusable_frame(self):
        obj = {"k": [1, 2, 3], "arr": np.ones(4)}
        nbytes, frame = measure(obj)
        assert frame is not None
        assert nbytes == frame.nbytes
        # Reusing the frame writes the exact wire bytes — no second pickle.
        assert frame.to_bytes() == serialize(obj)

    def test_unpicklable_returns_zero(self):
        nbytes, frame = measure(lambda x: x)
        assert nbytes == 0
        assert frame is None


class TestPayloadNbytes:
    def test_bytes(self):
        assert payload_nbytes(b"12345") == 5

    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_list_of_arrays(self):
        arrays = [np.zeros(4, dtype=np.float32), np.zeros(2, dtype=np.float64)]
        assert payload_nbytes(arrays) == 16 + 16

    def test_dict_of_arrays(self):
        payload = {"a": np.zeros(4, dtype=np.uint8), "b": np.zeros(4, dtype=np.uint8)}
        assert payload_nbytes(payload) == 8

    def test_generic_object_uses_pickle_size(self):
        assert payload_nbytes({"k": [1, 2, 3]}) > 0

    def test_empty_list_falls_back(self):
        assert payload_nbytes([]) >= 0
