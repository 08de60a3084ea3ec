"""Binary codec for the four-verb agent message format.

Every message starts with a fixed 64-bit header, followed by a variable
options section and an opaque payload.  All multi-byte integers are
big-endian.

    0               1               2               3
    +-------+---+---+---------------+-------------------------------+
    | ver   |vrb|qos|     flags     |          message_id           |
    | (4b)  |2b |2b |    (8 bits)   |           (16 bits)           |
    +-------+---+---+---------------+-------------------------------+
    |           sequence            |        correlation_id         |
    +-------------------------------+-------------------------------+
    | option_count  | option*       ...
    +---------------+--------------------------------------------...
    |  payload_len  | payload bytes ...
    +---------------+--------------------------------------------...

    option := type(8 bits) | length(16 bits) | value bytes

The section after the header is:

    [option_count:8] option^option_count [payload_len:16] payload

Hard limits: the options section (type+length+value for every option)
may not exceed OPTIONS_LIMIT bytes in total, option_count fits one
byte, and payload_len fits two bytes.  A minimal message (no options,
empty payload) is exactly 11 bytes on the wire.

`Header`, `Option` and `Message` are immutable tuples, validated once
by their constructors; each field range and limit is written once, below,
for the constructors, `check_wellformed` and `profile_faults`, which judges
a message known only by its option lengths, alike.  NamedTuple's `_make`
and `_replace` skip the checks.

`decode` checks only what bytes can get wrong and builds values
unchecked, since the byte format bounds every other field.  It raises
the first failure of these checks, in this order:

1. the input is at least MIN_MESSAGE_SIZE bytes (`Truncated`, "header");
2. the version is PROTOCOL_VERSION (`BadVersion`, "header");
3. for each option in turn: its type and length lie within the input,
   then its value does (`Truncated`, "option"), then the options section
   up to the value's end is at most OPTIONS_LIMIT bytes
   (`OversizedOptions`, "options-size");
4. the payload length lies within the input, then the payload does
   (`Truncated`, "payload");
5. no bytes follow the payload (`LengthMismatch`, "payload").

The options section starts at byte 9, so after an option that ends at
byte `pos` it is `pos - 9` bytes long.  Each option therefore costs one
bound check, `pos <= min(len(data), 9 + OPTIONS_LIMIT)`; only an option
that fails it is told apart, truncation first.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import NamedTuple

PROTOCOL_VERSION = 1

# Hard wire-format limits.
OPTIONS_LIMIT = 1024        # total bytes of the encoded options section
OPTION_VALUE_LIMIT = OPTIONS_LIMIT - 3
OPTION_COUNT_LIMIT = 255    # option_count is one byte
OPTION_CODE_MAX = 0xFF      # option type is one byte
PAYLOAD_LIMIT = 0xFFFF      # payload_len is two bytes
MIN_MESSAGE_SIZE = 11
HEADER_SIZE = 8

# Smallest and largest value of each header field, in check order.  The
# version nibble could encode 0..15, but only PROTOCOL_VERSION decodes.
_HEADER_RANGES = (("version", PROTOCOL_VERSION, PROTOCOL_VERSION),
                  ("qos", 0, 3), ("flags", 0, 0xFF),
                  ("message_id", 0, 0xFFFF), ("sequence", 0, 0xFFFF),
                  ("correlation_id", 0, 0xFFFF))
# The same bounds by name, for the `Header` constructor's fast path.
((_, _VERSION_LO, _VERSION_HI), (_, _QOS_LO, _QOS_HI),
 (_, _FLAGS_LO, _FLAGS_HI), (_, _MID_LO, _MID_HI),
 (_, _SEQ_LO, _SEQ_HI), (_, _CID_LO, _CID_HI)) = _HEADER_RANGES
U32_MAX = 0xFFFFFFFF        # numeric option values are four bytes

# Flag bits (byte 1 of the header).
FLAG_RESPONSE = 0x01
FLAG_ERROR = 0x02


class Verb(enum.IntEnum):
    """The four message verbs, as encoded in header bits 4-5."""

    PING = 0      # reachability probe / bare acknowledgement
    TELL = 1      # assert a belief or deliver a value
    ASK = 2       # request information or action
    OBSERVE = 3   # subscribe to a topic


_VERBS = tuple(Verb)                    # indexed by the 2-bit field
_VERB_OF = {v: v for v in Verb}         # any int equal to a verb -> Verb


class OptionType(enum.IntEnum):
    """Registered option codes.

    Unknown codes are legal on the wire (they decode and re-encode
    unchanged and must be ignored by processing rules); these are the
    codes with assigned meaning.  K_MAX is the size of this registry
    rounded to the bound used by the entropy analysis.
    """

    CID = 0x01           # conversation id, 4 bytes BE
    PROC = 0x02          # procedural performative code, 1 byte
    ERR = 0x03           # error detail, opaque
    BALLOT = 0x04        # consensus ballot, 8 bytes BE (round, proposer)
    VALUE = 0x05         # consensus value, opaque
    CONTENT_TYPE = 0x06  # payload kind, 1 byte (1=literal, 2=action)
    TOPIC = 0x07         # subscription topic, utf-8
    DEADLINE = 0x08      # relative deadline in ticks, 4 bytes BE
    CONV = 0x09          # decree / conversation instance tag, 4 bytes BE


K_MAX = 16

CONTENT_LITERAL = 1
CONTENT_ACTION = 2

# PROC option values: the one-byte codes of the procedural performatives
# (see fipa.SHAPES).  They live here, with the codec's other option
# values, so that traffic can carry them without loading the FIPA layer.
PROC_AGREE = 1
PROC_REFUSE = 2
PROC_CFP = 3
PROC_PROPOSE = 4
PROC_ACCEPT_PROPOSAL = 5
PROC_REJECT_PROPOSAL = 6
PROC_FORWARD = 7
PROC_PROXY = 8


class WireError(ValueError):
    """A byte string that is not a well-formed message.

    `clause` names the well-formedness clause the input failed, so
    diagnostics can be attributed without re-parsing.
    """

    def __init__(self, detail: str, clause: str = "header") -> None:
        super().__init__(detail)
        self.clause = clause


class Truncated(WireError):
    """Input ends before the declared structure is complete."""


class BadVersion(WireError):
    """Header version nibble is not PROTOCOL_VERSION."""


class TooManyOptions(WireError):
    """More options than fit the one-byte option_count."""


class OversizedOptions(WireError):
    """Encoded options section exceeds OPTIONS_LIMIT bytes."""


class OversizedPayload(WireError):
    """Payload exceeds PAYLOAD_LIMIT bytes."""


class LengthMismatch(WireError):
    """Trailing bytes after the declared end of the message."""


class FieldRange(WireError):
    """A header or option field is outside its encodable range."""


# The codec's bound pack and unpack methods.  One call packs the header
# and option count; one unpacks the 11 bytes every message starts with:
# header, count and the next two bytes, the payload length of a message
# without options.
_pack_head = struct.Struct(">BBHHHB").pack
_unpack_start = struct.Struct(">BBHHHBH").unpack_from
_OPTION_HEAD = struct.Struct(">BH")
_pack_option_head = _OPTION_HEAD.pack
_unpack_option_head = _OPTION_HEAD.unpack_from
_U16 = struct.Struct(">H")
_pack_u16 = _U16.pack
_unpack_u16 = _U16.unpack_from
_U32 = struct.Struct(">I")
_SECTION_START = HEADER_SIZE + 1        # first byte of the options section
_SECTION_END = _SECTION_START + OPTIONS_LIMIT
_new = tuple.__new__


# -- the rules: each yields, in check order, the error a constructor raises --
#
# A constructor first tests the conjunction of its rules in one expression
# and runs the generator only when that test fails, to raise its first fault.


def _header_faults(verb, qos, flags, message_id, sequence, correlation_id,
                   version):
    values = (version, qos, flags, message_id, sequence, correlation_id)
    for (name, lo, hi), value in zip(_HEADER_RANGES, values):
        if not lo <= value <= hi:
            yield FieldRange(f"{name} {value} not in {lo}..{hi}")
    if verb not in _VERB_OF:
        yield FieldRange(f"verb {verb} not in 0..3", "verb")


def _option_faults(code, length):
    if not 0 <= code <= OPTION_CODE_MAX:
        yield FieldRange(
            f"option code {code} not in 0..{OPTION_CODE_MAX}", "option")
    if length < 0:
        yield FieldRange(f"option length {length} is negative", "option")
    elif length > OPTION_VALUE_LIMIT:
        yield OversizedOptions(
            f"option value of {length} bytes cannot fit the "
            f"{OPTIONS_LIMIT}-byte options section",
            "option",
        )


def _body_faults(count, section, payload_len):
    if count > OPTION_COUNT_LIMIT:
        yield TooManyOptions(
            f"{count} options exceed count limit {OPTION_COUNT_LIMIT}",
            "count-cap",
        )
    if section > OPTIONS_LIMIT:
        yield OversizedOptions(
            f"options section is {section} bytes, limit {OPTIONS_LIMIT}",
            "options-size",
        )
    if payload_len > PAYLOAD_LIMIT:
        yield OversizedPayload(
            f"payload is {payload_len} bytes, limit {PAYLOAD_LIMIT}",
            "payload",
        )


def _section_size(profile) -> int:
    """Bytes of the options section: type and length, 3 bytes, and the
    value of each option."""
    return 3 * len(profile) + sum([length for _, length in profile])


def profile_faults(profile, payload_len: int):
    """Yield, in check order, every fault of a message body known only by
    its option profile, the `(code, value length)` of each option, and
    its payload length.  A length read from a file can be negative, and
    is a fault then."""
    for i, (code, length) in enumerate(profile):
        for e in _option_faults(code, length):
            yield type(e)(f"option {i}: {e}", e.clause)
    yield from _body_faults(len(profile), _section_size(profile), payload_len)


def encoded_size(profile, payload_len: int) -> int:
    """Encoded bytes of a message with this option profile and payload
    length: the `wire_size` a built `Message` carries."""
    return HEADER_SIZE + 3 + _section_size(profile) + payload_len


# -- values -------------------------------------------------------------------


class Option(NamedTuple("Option", [("code", int), ("value", bytes)])):
    """One type-length-value option, an immutable `(code, value)` tuple.

    Equality and hashing are a tuple's: `Option(6, b"\\x01") == (6, b"\\x01")`.
    """

    __slots__ = ()

    def __new__(cls, code: int, value: bytes = b""):
        if not (0 <= code <= OPTION_CODE_MAX
                and len(value) <= OPTION_VALUE_LIMIT):
            for fault in _option_faults(code, len(value)):
                raise fault
        return _new(cls, (code, value))


class Header(NamedTuple("Header", [
    ("verb", Verb), ("qos", int), ("flags", int), ("message_id", int),
    ("sequence", int), ("correlation_id", int), ("version", int),
])):
    """Decoded 64-bit fixed header, an immutable tuple of its fields.

    `verb` is converted to `Verb`.  Equality and hashing are a tuple's,
    so a header equals the plain tuple of its seven fields.
    """

    __slots__ = ()

    def __new__(cls, verb: Verb | int, qos: int = 0, flags: int = 0,
                message_id: int = 0, sequence: int = 0,
                correlation_id: int = 0, version: int = PROTOCOL_VERSION):
        if not (_VERSION_LO <= version <= _VERSION_HI
                and _QOS_LO <= qos <= _QOS_HI
                and _FLAGS_LO <= flags <= _FLAGS_HI
                and _MID_LO <= message_id <= _MID_HI
                and _SEQ_LO <= sequence <= _SEQ_HI
                and _CID_LO <= correlation_id <= _CID_HI
                and verb in _VERB_OF):
            for fault in _header_faults(verb, qos, flags, message_id,
                                        sequence, correlation_id, version):
                raise fault
        return _new(cls, (_VERB_OF[verb], qos, flags, message_id, sequence,
                          correlation_id, version))

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)

    @property
    def is_error(self) -> bool:
        return bool(self.flags & FLAG_ERROR)


class Message(NamedTuple("Message", [
    ("header", Header), ("options", tuple), ("payload", bytes),
    ("wire_size", int),
])):
    """A complete message: header, option sequence, payload.

    Options keep their wire order and duplicates are allowed; several
    processing rules (consensus promises, for one) rely on repeated
    option codes.  `wire_size`, the encoded length in bytes, is worked
    out when the message is built.  Equality and hashing are a tuple's,
    so a message equals the plain tuple of its four fields.
    """

    __slots__ = ()

    def __new__(cls, header: Header,
                options: tuple[Option, ...] | list[Option] = (),
                payload: bytes = b""):
        options = tuple(options)
        # The encoded options section: type, length and value each.
        section = 3 * len(options)
        for o in options:
            if type(o) is not Option:
                raise TypeError("options must be Option values")
            section += len(o.value)
        if not (len(options) <= OPTION_COUNT_LIMIT
                and section <= OPTIONS_LIMIT
                and len(payload) <= PAYLOAD_LIMIT):
            for fault in _body_faults(len(options), section, len(payload)):
                raise fault
        return _new(cls, (header, options, payload,
                          HEADER_SIZE + 3 + section + len(payload)))

    def __getnewargs__(self) -> tuple:
        # Copies and unpickled messages go through __new__ again, so
        # they are checked and their wire_size is worked out afresh.
        return self[:3]

    @property
    def verb(self) -> Verb:
        return self.header.verb

    def find(self, code: int) -> Option | None:
        """First option with the given code, or None."""
        for opt in self.options:
            if opt.code == code:
                return opt
        return None

    def has(self, code: int) -> bool:
        return self.find(code) is not None


def message(
    verb: Verb | int,
    *,
    qos: int = 0,
    flags: int = 0,
    message_id: int = 0,
    sequence: int = 0,
    correlation_id: int = 0,
    options: tuple[Option, ...] | list[Option] = (),
    payload: bytes = b"",
) -> Message:
    """Convenience constructor used throughout the higher layers."""
    return Message(
        Header(verb, qos, flags, message_id, sequence, correlation_id),
        options,
        payload,
    )


def encode(msg: Message) -> bytes:
    """Serialize a message to its canonical wire form.

    Encoding is a bijection with decode() on well-formed messages:
    option order is preserved and there is exactly one byte string per
    message value.
    """
    (verb, qos, flags, mid, seq, cid, version), options, payload, _ = msg
    b0 = (version << 4) | (verb << 2) | qos
    parts = [_pack_head(b0, flags, mid, seq, cid, len(options))]
    append = parts.append
    for code, value in options:
        append(_pack_option_head(code, len(value)))
        append(value)
    append(_pack_u16(len(payload)))
    append(payload)
    return b"".join(parts)


def decode(data: bytes) -> Message:
    """Parse wire bytes into a Message.

    Raises a WireError subclass for any malformed input; never raises
    anything else, regardless of input bytes.  The checks run in the
    order the module docstring gives.
    """
    if type(data) is not bytes:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected bytes, got {type(data).__name__}")
        data = bytes(data)
    n = len(data)
    if n < MIN_MESSAGE_SIZE:
        raise Truncated(f"{n} bytes, minimum message is {MIN_MESSAGE_SIZE}")
    # Every input this long holds the header, the count and two more
    # bytes: the payload length when there are no options.
    b0, flags, mid, seq, cid, count, plen = _unpack_start(data)
    version = b0 >> 4
    if version != PROTOCOL_VERSION:
        raise BadVersion(f"version {version}, expected {PROTOCOL_VERSION}")

    if count:
        # One bound per option (see the module docstring): past it, the
        # option runs past the input or takes the section past its limit.
        pos = _SECTION_START
        limit = n if n < _SECTION_END else _SECTION_END
        options = []
        append = options.append
        for _ in range(count):
            try:
                code, vlen = _unpack_option_head(data, pos)
            except struct.error:
                raise Truncated("option header runs past end of input",
                                "option") from None
            start = pos + 3
            pos = start + vlen
            if pos > limit:
                if pos > n:
                    raise Truncated(
                        "option value runs past end of input", "option")
                raise OversizedOptions(
                    f"options section exceeds {OPTIONS_LIMIT} bytes",
                    "options-size",
                )
            append(_new(Option, (code, data[start:pos])))
        try:
            (plen,) = _unpack_u16(data, pos)
        except struct.error:
            raise Truncated("payload length field runs past end of input",
                            "payload") from None
        start = pos + 2
        options = tuple(options)
    else:
        start = MIN_MESSAGE_SIZE
        options = ()
    end = start + plen
    if end != n:
        if end > n:
            raise Truncated("payload runs past end of input", "payload")
        raise LengthMismatch(
            f"{n - end} trailing bytes after message end", "payload"
        )
    header = _new(Header, (_VERBS[(b0 >> 2) & 0x3], b0 & 0x3, flags, mid,
                           seq, cid, version))
    return _new(Message, (header, options, data[start:], n))


@dataclass(frozen=True)
class Violation:
    """One failed well-formedness clause."""

    clause: str   # "header" | "verb" | "option" | "options-size" |
                  # "payload" | "count-cap"
    detail: str


#: The five structural clauses, plus the option-count cap which is
#: enforced by the byte format rather than the value model.
CLAUSES = ("header", "verb", "option", "options-size", "payload", "count-cap")


def check_wellformed(
    *,
    version: int,
    verb: int,
    qos: int,
    flags: int,
    message_id: int,
    sequence: int,
    correlation_id: int,
    options: list[tuple[int, bytes]],
    payload: bytes,
) -> list[Violation]:
    """Evaluate every well-formedness clause over raw field values.

    The rules are the ones the value constructors apply; but where a
    constructor raises the first violation, this accepts arbitrary
    integers and reports all of them with the clause each failed, so a
    single bad artifact can be diagnosed completely.  A message's own
    options are valid input.
    """
    profile = [(code, len(value)) for code, value in options]
    return [Violation(e.clause, str(e)) for e in (
        *_header_faults(verb, qos, flags, message_id, sequence,
                        correlation_id, version),
        *profile_faults(profile, len(payload)))]


def validate(data: bytes) -> list[Violation]:
    """Check wire bytes against the well-formedness clauses.

    Returns an empty list iff decode() succeeds.  decode rejects what
    the bytes can get wrong and the byte format bounds every other
    field, so a failure is reported under the clause it breaks, or, for
    structural failures that prevent parsing at all (truncation,
    trailing bytes), under the clause whose field could not be read.
    """
    try:
        decode(data)
    except WireError as e:
        return [Violation(e.clause, str(e))]
    return []


# Option value codecs for the registered numeric options.

def encode_u32(value: int) -> bytes:
    if not 0 <= value <= U32_MAX:
        raise FieldRange(f"u32 value {value} not in 0..{U32_MAX}", "option")
    return _U32.pack(value)


def decode_u32(value: bytes) -> int:
    if len(value) != 4:
        raise WireError(f"expected 4-byte integer option, got {len(value)}")
    return _U32.unpack(value)[0]


def opt_cid(cid: int) -> Option:
    return Option(OptionType.CID, encode_u32(cid))


def opt_conv(tag: int) -> Option:
    return Option(OptionType.CONV, encode_u32(tag))


def opt_topic(topic: str) -> Option:
    return Option(OptionType.TOPIC, topic.encode("utf-8"))


def opt_content_type(kind: int) -> Option:
    return Option(OptionType.CONTENT_TYPE, bytes((kind,)))


def opt_deadline(ticks: int) -> Option:
    return Option(OptionType.DEADLINE, encode_u32(ticks))


def opt_err(detail: bytes | str) -> Option:
    if isinstance(detail, str):
        detail = detail.encode("utf-8")
    return Option(OptionType.ERR, detail)
