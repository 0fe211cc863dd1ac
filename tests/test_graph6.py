import random

import pytest

from kordered import (
    Graph,
    Graph6Error,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
)
from oracles import decode_graph6_per_bit, encode_graph6_per_bit, random_graph


def test_k5_is_the_published_string():
    assert encode_graph6(Graph.complete(5)) == "D~{"
    assert decode_graph6("D~{") == Graph.complete(5)


def test_header_is_accepted():
    assert decode_graph6(">>graph6<<D~{") == Graph.complete(5)


def test_roundtrip_small_shapes():
    for g in (Graph.empty(0), Graph.empty(1), Graph.empty(2), Graph.path(2),
              Graph.cycle(3), Graph.cycle(6), Graph.complete_bipartite(3, 5)):
        assert decode_graph6(encode_graph6(g)) == g


def test_roundtrip_random_graphs():
    rng = random.Random(7)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 40), rng.uniform(0, 1))
        s = encode_graph6(g)
        assert decode_graph6(s) == g
        # canonical strings re-encode identically
        assert encode_graph6(decode_graph6(s)) == s


def test_roundtrip_medium_size_header():
    # n = 63 is the first size needing the three-byte form; 70 exercises it too
    rng = random.Random(8)
    for n in (62, 63, 70):
        g = random_graph(rng, n, 0.08)
        s = encode_graph6(g)
        assert s.startswith("~") == (n >= 63)
        assert decode_graph6(s) == g


def test_truncated_string_errors_with_offset():
    full = encode_graph6(Graph.complete(5))
    with pytest.raises(Graph6Error) as err:
        decode_graph6(full[:-1])
    assert err.value.offset is not None


def test_byte_outside_alphabet():
    with pytest.raises(Graph6Error):
        decode_graph6("D~\x1f")


def test_nonzero_padding_rejected():
    # K5 body ends with '{' = 60: flipping a padding bit gives '|'
    with pytest.raises(Graph6Error):
        decode_graph6("D~|")


def test_empty_input():
    with pytest.raises(Graph6Error):
        decode_graph6("")


def test_codec_matches_per_bit_oracle():
    rng = random.Random(21)
    for n in (0, 1, 2, 62, 63, 64, 65, 127, 200, 800):
        for g in (Graph.empty(n), Graph.complete(n), random_graph(rng, n, 0.5)):
            text = encode_graph6(g)
            assert text == encode_graph6_per_bit(g)
            assert decode_graph6(text) == g == decode_graph6_per_bit(text)


def _same_error(text: str, message: str, offset: int | None) -> None:
    for decode in (decode_graph6, decode_graph6_per_bit):
        with pytest.raises(Graph6Error) as err:
            decode(text)
        assert (str(err.value), err.value.offset) == (message, offset)


def test_bad_byte_deep_in_a_large_body():
    text = encode_graph6(random_graph(random.Random(22), 800, 0.5))
    _same_error(text[:40_000] + "\x1f" + text[40_001:],
                "byte 31 outside graph6 alphabet (byte offset 40000)", 40_000)
    _same_error(text[:40_000] + "\xe9" + text[40_001:], "non-ASCII byte in graph6 input", None)


def test_truncated_medium_header_body():
    text = encode_graph6(Graph.complete(200))  # 4 header bytes, 3317 body bytes
    _same_error(text[:1000], "expected 3317 data bytes for n=200, got 996 (byte offset 1000)",
                1000)
    _same_error(text[:4], "expected 3317 data bytes for n=200, got 0 (byte offset 4)", 4)


def test_nonzero_padding_rejected_at_every_padding_width():
    residues = set()
    for n in range(2, 40):
        nbits = n * (n - 1) // 2
        if not nbits % 6:
            continue
        residues.add(nbits % 6)
        text = encode_graph6(Graph.complete(n))
        last = ord(text[-1]) - 63
        for bit in range(6 - nbits % 6):
            _same_error(text[:-1] + chr((last | 1 << bit) + 63),
                        f"non-zero padding bits (byte offset {len(text) - 1})", len(text) - 1)
    # n(n-1)/2 is never 2 mod 3, so bodies with 2 or 5 spare bits do not exist
    assert residues == {1, 3, 4}


def test_edge_list_roundtrip():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 15), rng.uniform(0, 1))
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a triangle\n3\n\n0 1\n1 2\n2 0\n")
    assert g == Graph.cycle(3)


def test_edge_list_missing_header():
    with pytest.raises(ValueError):
        parse_edge_list("0 1\n")
