"""Codec: exact byte oracles, limit enforcement, roundtrip properties."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muacp import wire
from muacp.wire import (
    CLAUSES,
    Header,
    Message,
    Option,
    OptionType,
    Verb,
    WireError,
    decode,
    encode,
    message,
    validate,
)

# -- hand-computed byte oracles -----------------------------------------------

# version 1, verb PING, qos 0 -> 0x10; all other fields zero.
PING_HEX = "10" + "00" + "0000" + "0000" + "0000" + "00" + "0000"

# version 1, verb TELL (0b01), qos 0 -> 0x14; one VALUE option of 9 bytes.
TELL_HEX = (
    "14" + "00" + "0000" + "0000" + "0000"
    + "01"                     # option count
    + "05" + "0009" + "000102030405060708"
    + "0000"                   # payload length
)

# version 1, verb ASK (0b10), qos 1 -> 0x19; flags RESPONSE; mid 0x0102,
# seq 3, cid 9; CONTENT_TYPE literal option; payload "hi".
ASK_HEX = (
    "19" + "01" + "0102" + "0003" + "0009"
    + "01"
    + "06" + "0001" + "01"
    + "0002" + "6869"
)


def test_empty_ping_is_eleven_bytes():
    blob = encode(message(Verb.PING))
    assert blob == bytes.fromhex(PING_HEX)
    assert len(blob) == 11
    assert wire.MIN_MESSAGE_SIZE == 11


def test_tell_with_nine_byte_option_is_twenty_three_bytes():
    m = message(Verb.TELL, options=(Option(OptionType.VALUE, bytes(range(9))),))
    blob = encode(m)
    assert blob == bytes.fromhex(TELL_HEX)
    assert len(blob) == 23


def test_ask_oracle_field_for_field():
    m = message(
        Verb.ASK,
        qos=1,
        flags=wire.FLAG_RESPONSE,
        message_id=0x0102,
        sequence=3,
        correlation_id=9,
        options=(wire.opt_content_type(wire.CONTENT_LITERAL),),
        payload=b"hi",
    )
    assert encode(m) == bytes.fromhex(ASK_HEX)
    back = decode(bytes.fromhex(ASK_HEX))
    assert back.header.verb == Verb.ASK
    assert back.header.qos == 1
    assert back.header.is_response and not back.header.is_error
    assert back.header.message_id == 0x0102
    assert back.header.sequence == 3
    assert back.header.correlation_id == 9
    assert back.options == (Option(6, b"\x01"),)
    assert back.payload == b"hi"


def test_decode_inverts_encode_on_oracles():
    for hx in (PING_HEX, TELL_HEX, ASK_HEX):
        assert encode(decode(bytes.fromhex(hx))) == bytes.fromhex(hx)


def test_verb_bit_positions():
    for verb, b0 in ((Verb.PING, 0x10), (Verb.TELL, 0x14),
                     (Verb.ASK, 0x18), (Verb.OBSERVE, 0x1C)):
        assert encode(message(verb))[0] == b0


def test_qos_occupies_low_bits():
    assert encode(message(Verb.PING, qos=3))[0] == 0x13


def test_duplicate_options_preserved_in_order():
    opts = (
        Option(OptionType.BALLOT, b"\x00" * 8),
        Option(OptionType.BALLOT, b"\x01" * 8),
    )
    back = decode(encode(message(Verb.TELL, options=opts)))
    assert back.options == opts
    assert [o.value for o in back.options
            if o.code == OptionType.BALLOT] == [b"\x00" * 8, b"\x01" * 8]


# -- structural limits ----------------------------------------------------------


def test_option_count_cap():
    opts = tuple(Option(1, b"") for _ in range(255))
    m = message(Verb.PING, options=opts)
    assert decode(encode(m)) == m
    with pytest.raises(wire.TooManyOptions):
        message(Verb.PING, options=opts + (Option(1, b""),))


def test_option_value_limit_is_section_minus_head():
    assert wire.OPTION_VALUE_LIMIT == wire.OPTIONS_LIMIT - 3
    m = message(Verb.PING, options=(Option(1, b"x" * 1021),))
    assert decode(encode(m)) == m
    with pytest.raises(wire.OversizedOptions):
        Option(1, b"x" * 1022)


def test_options_aggregate_limit():
    # two 511-byte values: 2 * (3 + 511) = 1028 > 1024
    opts = (Option(1, b"a" * 511), Option(2, b"b" * 511))
    with pytest.raises(wire.OversizedOptions):
        message(Verb.PING, options=opts)


def test_payload_limit():
    m = message(Verb.TELL, payload=b"p" * 0xFFFF)
    assert decode(encode(m)) == m
    with pytest.raises(wire.OversizedPayload):
        message(Verb.TELL, payload=b"p" * 0x10000)


def test_header_field_ranges():
    with pytest.raises(wire.FieldRange):
        Header(verb=Verb.PING, qos=4)
    with pytest.raises(wire.FieldRange):
        Header(verb=Verb.PING, message_id=0x10000)
    with pytest.raises(wire.FieldRange):
        Header(verb=Verb.PING, flags=256)
    # any other version would encode to bytes that decode rejects
    for version in (0, 2, 15):
        with pytest.raises(wire.FieldRange):
            Header(verb=Verb.PING, version=version)


# -- well-formedness clauses ----------------------------------------------------

GOOD = bytes.fromhex(PING_HEX)


def _mutate(blob: bytes, index: int, value: int) -> bytes:
    b = bytearray(blob)
    b[index] = value
    return bytes(b)


# clause -> (well-formed bytes, violating bytes)
CLAUSE_FIXTURES = {
    "header": (GOOD, _mutate(GOOD, 0, 0x20)),          # version 2
    "verb": (GOOD, GOOD),                              # see below: total on wire
    "option": (
        bytes.fromhex(TELL_HEX),
        bytes.fromhex("1000000000000000" + "01" + "05ffff" + "0000"),
    ),
    "options-size": (
        encode(message(Verb.PING, options=(Option(1, b"x" * 1021),))),
        bytes.fromhex("1000000000000000" + "02")
        + bytes([5, 2, 0]) + b"\x00" * 512
        + bytes([5, 2, 0]) + b"\x00" * 512
        + b"\x00\x00",
    ),
    "payload": (
        encode(message(Verb.TELL, payload=b"hello")),
        GOOD + b"\xee",                                 # trailing byte
    ),
    "count-cap": (
        encode(message(Verb.PING, options=(Option(1, b""),) * 255)),
        None,                                           # unreachable on wire
    ),
}


def test_every_clause_has_fixtures():
    assert set(CLAUSE_FIXTURES) == set(CLAUSES)


@pytest.mark.parametrize("clause", sorted(CLAUSE_FIXTURES))
def test_clause_pass_fixture(clause):
    good, _bad = CLAUSE_FIXTURES[clause]
    assert validate(good) == []


@pytest.mark.parametrize(
    "clause",
    [c for c, (_, bad) in sorted(CLAUSE_FIXTURES.items()) if bad is not None
     and c != "verb"],
)
def test_clause_fail_fixture_flags_exactly_that_clause(clause):
    _good, bad = CLAUSE_FIXTURES[clause]
    got = validate(bad)
    assert got, f"expected a violation for clause {clause}"
    assert {v.clause for v in got} == {clause}


def test_verb_clause_total_on_wire_but_checked_on_values():
    # every 2-bit pattern is a verb, so no byte string violates the
    # verb clause; the field-level checker still owns it.
    v = wire.check_wellformed(
        version=1, verb=5, qos=0, flags=0, message_id=0, sequence=0,
        correlation_id=0, options=[], payload=b"",
    )
    assert [x.clause for x in v] == ["verb"]


def test_count_cap_field_level():
    v = wire.check_wellformed(
        version=1, verb=0, qos=0, flags=0, message_id=0, sequence=0,
        correlation_id=0, options=[(1, b"")] * 256, payload=b"",
    )
    assert "count-cap" in {x.clause for x in v}


def test_multiple_violations_reported_together():
    v = wire.check_wellformed(
        version=3, verb=7, qos=0, flags=0, message_id=0, sequence=0,
        correlation_id=0, options=[], payload=b"",
    )
    assert {x.clause for x in v} == {"header", "verb"}


# -- properties -------------------------------------------------------------

option_st = st.builds(
    Option,
    st.integers(0, 255),
    st.binary(max_size=24),
)

message_st = st.builds(
    message,
    st.sampled_from(list(Verb)),
    qos=st.integers(0, 3),
    flags=st.integers(0, 255),
    message_id=st.integers(0, 0xFFFF),
    sequence=st.integers(0, 0xFFFF),
    correlation_id=st.integers(0, 0xFFFF),
    options=st.lists(option_st, max_size=8).map(tuple),
    payload=st.binary(max_size=128),
)


@settings(max_examples=300)
@given(message_st)
def test_roundtrip(m):
    blob = encode(m)
    assert len(blob) == m.wire_size
    assert decode(blob) == m
    assert validate(blob) == []


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_never_crash(blob):
    try:
        m = decode(blob)
    except WireError:
        assert validate(blob) != []
    else:
        assert encode(m) == blob


@given(message_st, st.binary(min_size=1, max_size=4))
def test_trailing_bytes_rejected(m, junk):
    with pytest.raises(wire.LengthMismatch):
        decode(encode(m) + junk)


@given(message_st)
def test_truncations_rejected(m):
    blob = encode(m)
    for cut in range(len(blob)):
        with pytest.raises(WireError):
            decode(blob[:cut])


# -- decode's check order ---------------------------------------------------
#
# decode checks each option against one bound, min(len, 9 + OPTIONS_LIMIT),
# and tells an option past it apart only then; these pin the order that
# the module docstring documents, against a parser written in that order.


def _frame(*options, payload=b"", count=None, b0=0x10) -> bytes:
    """Raw wire bytes: a header with first byte `b0`, `count` (default
    the number of options) and each `(code, value)` option, unchecked."""
    out = bytes([b0, 0, 0, 0, 0, 0, 0, 0,
                 len(options) if count is None else count])
    for code, value in options:
        out += bytes([code]) + len(value).to_bytes(2, "big") + value
    return out + len(payload).to_bytes(2, "big") + payload


def _verdict(data):
    """What decoding `data` gives: the message, or the error's class,
    clause and text."""
    try:
        return decode(data)
    except WireError as e:
        return (type(e), e.clause, str(e))


_SECTION_1024 = ((1, b"a" * 509), (2, b"b" * 509))      # 2 * (3 + 509)
_SECTION_1025 = ((1, b"a" * 510), (2, b"b" * 509))
_OVERSIZED = (wire.OversizedOptions, "options-size",
              "options section exceeds 1024 bytes")
_OPTION_HEAD_CUT = (wire.Truncated, "option",
                    "option header runs past end of input")
_OPTION_VALUE_CUT = (wire.Truncated, "option",
                     "option value runs past end of input")
_PLEN_CUT = (wire.Truncated, "payload",
             "payload length field runs past end of input")

DECODE_EDGES = {
    "section-1024": (_frame(*_SECTION_1024), None),
    "one-option-section-1024": (_frame((1, b"x" * 1021)), None),
    "section-1025": (_frame(*_SECTION_1025), _OVERSIZED),
    "one-option-section-1025": (_frame((1, b"x" * 1022)), _OVERSIZED),
    "section-1025-at-input-end": (_frame(*_SECTION_1025)[:-2], _OVERSIZED),
    "option-value-cut": (_frame((1, b"abc"), payload=b"p")[:13],
                         _OPTION_VALUE_CUT),
    # the value runs past the input and past the limit: truncation wins
    "overrun-and-oversized": (
        _frame((1, b"x" * 1030))[:1000], _OPTION_VALUE_CUT),
    "overrun-and-oversized-second": (
        _frame((1, b""), (2, b"y" * 2000))[:20], _OPTION_VALUE_CUT),
    "option-head-cut-0": (_frame((1, b""), (2, b""))[:12], _OPTION_HEAD_CUT),
    "option-head-cut-1": (_frame((1, b""), (2, b""))[:13], _OPTION_HEAD_CUT),
    "option-head-cut-2": (_frame((1, b""), (2, b""))[:14], _OPTION_HEAD_CUT),
    "option-head-cut-past-limit": (
        _frame(*_SECTION_1024, (3, b""))[:9 + 1024 + 2], _OPTION_HEAD_CUT),
    "payload-length-cut-0": (_frame((1, b""))[:12], _PLEN_CUT),
    "payload-length-cut-1": (_frame((1, b""))[:13], _PLEN_CUT),
    "payload-length-cut-after-section-1024": (
        _frame(*_SECTION_1024)[:9 + 1024 + 1], _PLEN_CUT),
    "payload-cut": (_frame(payload=b"abc")[:13], (
        wire.Truncated, "payload", "payload runs past end of input")),
    "trailing-bytes": (_frame((1, b"v"), payload=b"p") + b"\x00\x01", (
        wire.LengthMismatch, "payload", "2 trailing bytes after message end")),
    "trailing-bytes-no-options": (_frame() + b"\x07", (
        wire.LengthMismatch, "payload", "1 trailing bytes after message end")),
    "version-before-truncation": (_frame((1, b"x" * 50), b0=0x20)[:20], (
        wire.BadVersion, "header", "version 2, expected 1")),
    "short-before-version": (bytes([0x20] * 10), (
        wire.Truncated, "header", "10 bytes, minimum message is 11")),
}


@pytest.mark.parametrize("form", [bytes, bytearray, memoryview])
@pytest.mark.parametrize("name", sorted(DECODE_EDGES))
def test_decode_verdict_at_each_edge(name, form):
    blob, expected = DECODE_EDGES[name]
    got = _verdict(form(blob))
    if expected is None:
        assert type(got) is Message and encode(got) == blob
        assert got.wire_size == len(blob)
    else:
        assert got == expected


def _reference_decode(data) -> Message:
    """decode, written plainly in the documented check order: every bound
    checked on its own, the section summed, fields read by slicing."""
    data = bytes(data)
    n = len(data)
    if n < wire.MIN_MESSAGE_SIZE:
        raise wire.Truncated(f"{n} bytes, minimum message is 11")
    if data[0] >> 4 != wire.PROTOCOL_VERSION:
        raise wire.BadVersion(f"version {data[0] >> 4}, expected 1")
    pos, section, options = 9, 0, []
    for _ in range(data[8]):
        if pos + 3 > n:
            raise wire.Truncated(
                "option header runs past end of input", "option")
        code, vlen = data[pos], int.from_bytes(data[pos + 1:pos + 3], "big")
        pos += 3
        if pos + vlen > n:
            raise wire.Truncated(
                "option value runs past end of input", "option")
        section += 3 + vlen
        if section > wire.OPTIONS_LIMIT:
            raise wire.OversizedOptions(
                "options section exceeds 1024 bytes", "options-size")
        options.append(Option(code, data[pos:pos + vlen]))
        pos += vlen
    if pos + 2 > n:
        raise wire.Truncated(
            "payload length field runs past end of input", "payload")
    plen = int.from_bytes(data[pos:pos + 2], "big")
    pos += 2
    if pos + plen > n:
        raise wire.Truncated("payload runs past end of input", "payload")
    if pos + plen < n:
        raise wire.LengthMismatch(
            f"{n - pos - plen} trailing bytes after message end", "payload")
    field = lambda i: int.from_bytes(data[i:i + 2], "big")  # noqa: E731
    header = Header(Verb((data[0] >> 2) & 3), data[0] & 3, data[1],
                    field(2), field(4), field(6))
    return Message(header, options, data[pos:])


@st.composite
def _near_limit_frame(draw) -> bytes:
    """Raw bytes whose options section is within a few bytes of the
    limit, split over one to three options."""
    k = draw(st.integers(1, 3))
    total = draw(st.integers(wire.OPTIONS_LIMIT - 3, wire.OPTIONS_LIMIT + 3))
    lengths = [draw(st.integers(0, (total - 3 * k) // k))
               for _ in range(k - 1)]
    lengths.append(total - 3 * k - sum(lengths))
    return _frame(*((i, b"v" * n) for i, n in enumerate(lengths)),
                  payload=draw(st.binary(max_size=4)))


@st.composite
def _decoder_inputs(draw):
    blob = draw(st.binary(max_size=64) | message_st.map(encode)
                | _near_limit_frame())
    edit = draw(st.sampled_from(["none", "cut", "set", "extend"]))
    if edit == "cut":
        blob = blob[:draw(st.integers(0, len(blob)))]
    elif edit == "set" and blob:
        blob = _mutate(blob, draw(st.integers(0, len(blob) - 1)),
                       draw(st.integers(0, 255)))
    elif edit == "extend":
        blob += draw(st.binary(min_size=1, max_size=4))
    return draw(st.sampled_from([bytes, bytearray, memoryview]))(blob)


@settings(max_examples=500)
@given(_decoder_inputs())
def test_decode_matches_the_reference_parser(data):
    try:
        expected = _reference_decode(data)
    except WireError as e:
        expected = (type(e), e.clause, str(e))
    got = _verdict(data)
    assert got == expected
    if type(got) is Message:
        assert got.wire_size == expected.wire_size == len(data)
        assert type(got.payload) is bytes
        assert all(type(o.value) is bytes for o in got.options)


def test_option_helpers_roundtrip():
    assert wire.decode_u32(wire.opt_cid(0xDEADBEEF).value) == 0xDEADBEEF
    assert wire.opt_topic("alerts").value == b"alerts"
    assert wire.opt_deadline(500).value == bytes.fromhex("000001f4")
    assert wire.opt_conv(0xFFFFFFFF).value == b"\xff" * 4
    with pytest.raises(WireError):
        wire.decode_u32(b"\x00")
    for helper in (wire.opt_cid, wire.opt_conv, wire.opt_deadline):
        for bad in (-1, 2**32):
            with pytest.raises(wire.FieldRange):
                helper(bad)


def test_wire_values_equal_the_plain_tuple_of_their_fields():
    opt = Option(6, b"\x01")
    assert opt == (6, b"\x01") and hash(opt) == hash((6, b"\x01"))
    h = Header(Verb.ASK, qos=1)
    assert h == (Verb.ASK, 1, 0, 0, 0, 0, wire.PROTOCOL_VERSION)
    m = message(Verb.ASK, qos=1, options=[opt], payload=b"hi")
    assert m == (h, (opt,), b"hi", 17) == decode(encode(m))
    # but a plain pair is not an option: it skipped the option rules
    with pytest.raises(TypeError):
        message(Verb.ASK, options=[(300, b"")])


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)),
], ids=["copy", "deepcopy", "pickle"])
def test_messages_copy_and_pickle(clone):
    built = message(Verb.TELL, qos=1, correlation_id=7, payload=b"done(x)",
                    options=[wire.opt_content_type(1), wire.opt_cid(9)])
    for m in (built, decode(encode(built)), message(Verb.PING)):
        twin = clone(m)
        assert type(twin) is Message and type(twin.header) is Header
        assert twin == m and encode(twin) == encode(m)


# -- the checker and the constructors apply the same rules --------------------


def _around(hi: int):
    """Integers in 0..hi, plus the values just outside it."""
    return st.integers(0, hi) | st.sampled_from([-1, hi, hi + 1])


raw_fields_st = st.fixed_dictionaries({
    "version": st.just(wire.PROTOCOL_VERSION) | st.integers(-1, 16),
    "verb": _around(3),
    "qos": _around(3),
    "flags": _around(0xFF),
    "message_id": _around(0xFFFF),
    "sequence": _around(0xFFFF),
    "correlation_id": _around(0xFFFF),
    "options": (
        st.lists(
            st.tuples(
                _around(0xFF),
                st.binary(max_size=8)
                | st.integers(509, wire.OPTION_VALUE_LIMIT + 1).map(bytes),
            ),
            max_size=4,
        )
        | st.integers(254, 256).map(lambda k: [(1, b"")] * k)
    ),
    "payload": st.binary(max_size=8)
    | st.sampled_from([wire.PAYLOAD_LIMIT, wire.PAYLOAD_LIMIT + 1]).map(bytes),
})


def _assert_constructors_match_checker(fields):
    # The constructors test each rule in one expression and fall back to
    # the rule generators only to name the fault, so they must accept
    # exactly what the checker passes and otherwise raise the checker's
    # first violation, with the same clause and text.
    violations = wire.check_wellformed(**fields)
    where = ""
    try:
        header = Header(**{k: fields[k] for k in Header._fields})
        options = []
        for i, (code, value) in enumerate(fields["options"]):
            where = f"option {i}: "
            options.append(Option(code, value))
        where = ""
        Message(header, options, fields["payload"])
    except WireError as e:
        assert violations, e
        first = violations[0]
        assert (e.clause, where + str(e)) == (first.clause, first.detail)
    else:
        assert violations == []


_VALID_FIELDS = {
    "version": wire.PROTOCOL_VERSION, "verb": 0, "qos": 0, "flags": 0,
    "message_id": 0, "sequence": 0, "correlation_id": 0,
    "options": [], "payload": b"",
}


def _bound_edits() -> list[dict]:
    """One field each, on a bound or one step to either side of it."""
    edits = []
    for name, lo, hi in (*wire._HEADER_RANGES, ("verb", min(Verb), max(Verb))):
        edits += ({name: v} for v in sorted({lo - 1, lo, lo + 1, hi - 1, hi,
                                             hi + 1}))
    for code in (-1, 0, 1, wire.OPTION_CODE_MAX, wire.OPTION_CODE_MAX + 1):
        edits.append({"options": [(code, b"")]})
    two = wire.OPTIONS_LIMIT - 6   # value bytes two options may hold
    for d in (-1, 0, 1):
        edits += [
            {"options": [(1, bytes(wire.OPTION_VALUE_LIMIT + d))]},
            {"options": [(1, bytes(two // 2)), (2, bytes(two - two // 2 + d))]},
            {"options": [(1, b"")] * (wire.OPTION_COUNT_LIMIT + d)},
            {"payload": bytes(wire.PAYLOAD_LIMIT + d)},
        ]
    return edits


def _edit_id(edit: dict) -> str:
    ((name, value),) = edit.items()
    if name == "payload":
        return f"payload-{len(value)}"
    if name == "options":
        return (f"options-{len(value)}-code{value[0][0]}-"
                f"bytes{sum(len(v) for _, v in value)}")
    return f"{name}={value}"


BOUND_EDITS = _bound_edits()


@pytest.mark.parametrize("edit", BOUND_EDITS, ids=map(_edit_id, BOUND_EDITS))
def test_constructors_match_the_checker_at_each_bound(edit):
    _assert_constructors_match_checker({**_VALID_FIELDS, **edit})


@settings(max_examples=800)
@given(
    raw_fields_st
    | st.lists(st.sampled_from(BOUND_EDITS), min_size=1, max_size=4).map(
        lambda edits: {k: v for e in [_VALID_FIELDS, *edits]
                       for k, v in e.items()})
)
def test_checker_passes_exactly_what_the_constructors_build(fields):
    _assert_constructors_match_checker(fields)


@settings(max_examples=400)
@given(
    st.binary(max_size=64)
    | message_st.map(encode)
    | st.tuples(message_st.map(encode), st.integers(0, 10),
                st.integers(0, 255)).map(
        lambda t: _mutate(t[0], t[1], t[2]) if t[1] < len(t[0]) else t[0]
    )
)
def test_decoded_values_rebuild_through_the_constructors(blob):
    try:
        m = decode(blob)
    except WireError:
        return
    rebuilt = Message(Header(*m.header), [Option(*o) for o in m.options],
                      m.payload)
    assert rebuilt == m
    assert rebuilt.wire_size == m.wire_size == len(blob)
    assert type(m.header) is Header and type(m.header.verb) is Verb
    assert all(type(o) is Option for o in m.options)
