"""The shared socket stack: URL grammar and the buffered frame splitter.

The rest of ``repro.wire`` is covered where its users test it: frame
encoding in ``test_mw_codec.TestFraming``, the blocking reader in
``test_mw_tcp.TestSocketFraming``, partial and coalesced frames through
both selector loops (``test_mw_tcp.TestSelectorReceive``,
``test_netstore.TestServerRobustness``), and the dial backoff in
``test_netstore.TestDialBackoff``.
"""

import struct

import pytest

from repro.wire import CodecError, encode_frame, parse_url, split_frames

#: (url, scheme, expected (host, port) or None when the URL is rejected).
URL_CASES = [
    ("tcp://10.0.0.5:7777", "tcp", ("10.0.0.5", 7777)),
    ("tcp://0.0.0.0:0", "tcp", ("0.0.0.0", 0)),  # ephemeral port allowed
    ("127.0.0.1:7777", "tcp", None),
    ("tcp://", "tcp", None),
    ("tcp://host", "tcp", None),
    ("tcp://host:port", "tcp", None),
    ("tcp://host:70000", "tcp", None),
    ("tcp://:5555", "tcp", None),
    ("store://db.host:9090", "store", ("db.host", 9090)),
    ("store://127.0.0.1:0", "store", ("127.0.0.1", 0)),
    ("sqlite", "store", None),
    ("store://", "store", None),
    ("store://host", "store", None),
    ("store://:80", "store", None),
    ("store://h:x", "store", None),
    ("store://h:70000", "store", None),
]


@pytest.mark.parametrize("url,scheme,expected", URL_CASES,
                         ids=[case[0] for case in URL_CASES])
def test_url_grammar(url, scheme, expected):
    if expected is None:
        with pytest.raises(ValueError, match=scheme):
            parse_url(url, scheme)
    else:
        assert parse_url(url, scheme) == expected


def test_split_frames_yields_the_good_frames_before_a_bad_prefix():
    buf = bytearray(encode_frame(b"ok") + struct.pack(">I", 2**31))
    frames = split_frames(buf)
    assert next(frames) == b"ok"
    with pytest.raises(CodecError, match="exceeds"):
        next(frames)
