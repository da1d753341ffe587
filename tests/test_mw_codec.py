"""Round-trip tests for the MW wire codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mw import pack, unpack
from repro.mw.codec import CodecError

# recursive strategy for codec-supported values
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @given(obj=values)
    @settings(max_examples=120)
    def test_pack_unpack_identity(self, obj):
        assert unpack(pack(obj)) == obj

    def test_tuple_roundtrip(self):
        assert unpack(pack((1, "a", None))) == (1, "a", None)

    def test_nested_structure(self):
        obj = {"task": 3, "work": {"theta": [1.0, 2.0], "dt": 0.5}, "tags": ("x",)}
        assert unpack(pack(obj)) == obj

    def test_float_nan_roundtrip(self):
        out = unpack(pack(float("nan")))
        assert out != out

    def test_float_inf_roundtrip(self):
        assert unpack(pack(float("inf"))) == float("inf")

    def test_ndarray_roundtrip(self):
        arr = np.arange(12, dtype=float).reshape(3, 4)
        out = unpack(pack(arr))
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_ndarray_int_dtype(self):
        arr = np.array([[1, -2], [3, 4]], dtype=np.int32)
        out = unpack(pack(arr))
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.int32

    def test_empty_array(self):
        out = unpack(pack(np.zeros((0, 3))))
        assert out.shape == (0, 3)

    def test_numpy_scalars_normalize(self):
        assert unpack(pack(np.int64(7))) == 7
        assert unpack(pack(np.float64(2.5))) == 2.5
        assert unpack(pack(np.bool_(True))) is True

    def test_unpacked_array_is_writable_copy(self):
        arr = np.ones(3)
        out = unpack(pack(arr))
        out[0] = 5.0  # must not raise (frombuffer views are read-only)


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(CodecError):
            pack(object())

    def test_object_array_rejected(self):
        with pytest.raises(CodecError):
            pack(np.array([object()]))

    def test_oversized_int_rejected(self):
        with pytest.raises(CodecError):
            pack(2**64)

    def test_truncated_payload_rejected(self):
        data = pack([1, 2, 3])
        with pytest.raises(CodecError):
            unpack(data[:-1])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError):
            unpack(pack(1) + b"x")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            unpack(b"Z")

    def test_empty_payload_rejected(self):
        with pytest.raises(CodecError):
            unpack(b"")


class TestFraming:
    """The length-prefixed frame layer (:mod:`repro.wire`) around codec payloads."""

    def test_frame_roundtrip(self):
        from repro.wire import decode_frame_length, encode_frame

        payload = pack({"task_id": 1, "work": [1.0, 2.0]})
        frame = encode_frame(payload)
        assert decode_frame_length(frame[:4]) == len(payload)
        assert frame[4:] == payload

    def test_oversized_frame_rejected_on_encode(self):
        from repro.wire import encode_frame

        with pytest.raises(CodecError, match="exceeds"):
            encode_frame(b"x" * 100, max_bytes=10)

    def test_oversized_declared_length_rejected_on_decode(self):
        """A corrupt/hostile length prefix must fail, not allocate or hang."""
        import struct

        from repro.wire import decode_frame_length

        header = struct.pack(">I", 2**31)
        with pytest.raises(CodecError, match="exceeds"):
            decode_frame_length(header)

    def test_short_header_rejected(self):
        from repro.wire import decode_frame_length

        with pytest.raises(CodecError, match="truncated frame header"):
            decode_frame_length(b"\x00\x01")

    def test_default_limit_accepts_real_messages(self):
        from repro.wire import MAX_FRAME_BYTES, decode_frame_length, encode_frame

        payload = pack(np.zeros(1024))
        frame = encode_frame(payload)
        assert len(payload) < MAX_FRAME_BYTES
        assert decode_frame_length(frame[:4], MAX_FRAME_BYTES) == len(payload)


class TestFloatListFastPath:
    """The homogeneous float-list tag: one struct call, bitwise round-trip."""

    def test_uses_dedicated_tag(self):
        assert pack([1.0, 2.0])[0:1] == b"L"

    def test_bitwise_roundtrip_with_specials(self):
        import math

        values = [0.1, -2.5e300, float("nan"), float("-inf"), -0.0, 5e-324]
        out = unpack(pack(values))
        assert isinstance(out, list) and len(out) == len(values)
        for a, b in zip(values, out):
            if math.isnan(a):
                assert math.isnan(b)
            else:
                assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

    def test_mixed_list_falls_back_to_generic_tag(self):
        payload = [1.0, 2]
        assert pack(payload)[0:1] == b"l"
        assert unpack(pack(payload)) == payload

    def test_bool_is_not_a_float(self):
        payload = [1.0, True]
        assert pack(payload)[0:1] == b"l"
        assert unpack(pack(payload)) == payload

    def test_empty_list_uses_generic_tag(self):
        assert pack([])[0:1] == b"l"
        assert unpack(pack([])) == []

    def test_truncated_float_list_rejected(self):
        data = pack([1.0, 2.0, 3.0])
        with pytest.raises(CodecError):
            unpack(data[:-4])

    def test_large_list_roundtrip(self):
        values = [float(i) * 0.1 for i in range(10_000)]
        assert unpack(pack(values)) == values


def same(a, b):
    """Equal *and* of identical Python types, recursively (``True != 1``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


class TestIdListFastPaths:
    """The homogeneous str/int list tags: one struct call per id column."""

    def test_str_list_uses_dedicated_tag(self):
        ids = ["job-0", "job-1", "job-22"]
        assert pack(ids)[0:1] == b"S"
        out = unpack(pack(ids))
        assert same(out, ids)

    def test_int_list_uses_dedicated_tag(self):
        values = [0, -1, 2**63 - 1, -(2**63)]
        assert pack(values)[0:1] == b"I"
        out = unpack(pack(values))
        assert same(out, values)

    def test_bool_int_mixes_fall_back_and_keep_their_bools(self):
        for payload in ([True, 1], [1, True]):
            assert pack(payload)[0:1] == b"l"
            assert same(unpack(pack(payload)), payload)

    def test_all_bool_list_keeps_bools(self):
        assert same(unpack(pack([True, False])), [True, False])

    def test_out_of_range_int_in_list_rejected(self):
        with pytest.raises(CodecError, match="64-bit"):
            pack([2**63])
        with pytest.raises(CodecError, match="64-bit"):
            pack([1, -(2**63) - 1])

    def test_non_ascii_and_empty_strings_roundtrip(self):
        ids = ["", "héllo", "", "日本語", "a\x00b", "\U0001f600"]
        assert pack(ids)[0:1] == b"S"
        assert same(unpack(pack(ids)), ids)

    def test_str_list_of_empty_strings(self):
        assert same(unpack(pack(["", ""])), ["", ""])

    def test_truncated_str_list_rejected(self):
        data = pack(["job-0", "job-1"])
        for cut in (1, 3, 6, len(data) - 1):
            with pytest.raises(CodecError):
                unpack(data[:cut])

    def test_truncated_int_list_rejected(self):
        data = pack([1, 2, 3])
        for cut in (1, 3, 6, len(data) - 1):
            with pytest.raises(CodecError):
                unpack(data[:cut])

    def test_batch_frame_columns_roundtrip(self):
        work = {
            "kind": "eval_batch",
            "job_ids": [f"job-{i:040x}" for i in range(24)],
            "proposal_ids": [f"r{i}:v{i % 5}" for i in range(24)],
            "thetas": np.arange(48.0).reshape(24, 2),
        }
        out = unpack(pack(work))
        assert same(out["job_ids"], work["job_ids"])
        assert same(out["proposal_ids"], work["proposal_ids"])
        np.testing.assert_array_equal(out["thetas"], work["thetas"])

    @given(obj=values)
    @settings(max_examples=200)
    def test_roundtrip_preserves_python_types(self, obj):
        assert same(unpack(pack(obj)), obj)

    @given(
        strs=st.lists(st.text(max_size=12), min_size=1, max_size=20),
        ints=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1),
                      min_size=1, max_size=20),
    )
    @settings(max_examples=100)
    def test_homogeneous_lists_roundtrip(self, strs, ints):
        assert pack(strs)[0:1] == b"S" and same(unpack(pack(strs)), strs)
        assert pack(ints)[0:1] == b"I" and same(unpack(pack(ints)), ints)


class TestMalformedPayloads:
    """Every malformed payload raises CodecError, never another exception."""

    @staticmethod
    def _array_payload(dtype=b"<f8", shape=(2,), raw=b"\x00" * 16):
        import struct

        out = b"a" + struct.pack("<I", len(dtype)) + dtype
        out += struct.pack("<I", len(shape))
        out += b"".join(struct.pack("<q", d) for d in shape)
        return out + struct.pack("<I", len(raw)) + raw

    def test_array_payload_helper_is_well_formed(self):
        np.testing.assert_array_equal(unpack(self._array_payload()), np.zeros(2))

    def test_invalid_utf8_string_rejected(self):
        with pytest.raises(CodecError, match="UTF-8"):
            unpack(b"s\x02\x00\x00\x00\xff\xfe")

    def test_invalid_utf8_in_str_list_rejected(self):
        with pytest.raises(CodecError, match="UTF-8"):
            unpack(b"S\x01\x00\x00\x00\x02\x00\x00\x00\xff\xfe")

    def test_unknown_dtype_rejected(self):
        with pytest.raises(CodecError, match="dtype"):
            unpack(self._array_payload(dtype=b"zz9"))

    def test_non_ascii_dtype_rejected(self):
        with pytest.raises(CodecError, match="dtype"):
            unpack(self._array_payload(dtype=b"\xff"))

    def test_object_dtype_rejected(self):
        with pytest.raises(CodecError, match="object"):
            unpack(self._array_payload(dtype=b"|O"))

    def test_raw_size_shape_mismatch_rejected(self):
        with pytest.raises(CodecError, match="needs 24 bytes"):
            unpack(self._array_payload(shape=(3,), raw=b"\x00" * 16))

    def test_negative_dimension_rejected(self):
        with pytest.raises(CodecError, match="negative"):
            unpack(self._array_payload(shape=(-1,), raw=b"\x00" * 16))

    def test_unhashable_dict_key_rejected(self):
        bad = b"d\x01\x00\x00\x00" + pack([1, "x"]) + pack(None)
        with pytest.raises(CodecError, match="unhashable"):
            unpack(bad)

    def test_deep_nesting_rejected(self):
        with pytest.raises(CodecError, match="nests"):
            unpack(b"l\x01\x00\x00\x00" * 100_000 + pack(None))

    def test_malformed_message_frames_raise_codec_error(self):
        from repro.mw.messages import decode_message

        for obj in ([1, 2, 3], ("task", "x", None), ("nope", 0, None),
                    ("task", -1, None), (1, 0, None)):
            with pytest.raises(CodecError):
                decode_message(pack(obj))
