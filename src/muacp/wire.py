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
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

PROTOCOL_VERSION = 1

# Hard wire-format limits.
OPTIONS_LIMIT = 1024        # total bytes of the encoded options section
OPTION_VALUE_LIMIT = OPTIONS_LIMIT - 3
OPTION_COUNT_LIMIT = 255    # option_count is one byte
PAYLOAD_LIMIT = 0xFFFF      # payload_len is two bytes
MIN_MESSAGE_SIZE = 11
HEADER_SIZE = 8

# Flag bits (byte 1 of the header).
FLAG_RESPONSE = 0x01
FLAG_ERROR = 0x02
KNOWN_FLAGS = FLAG_RESPONSE | FLAG_ERROR


class Verb(enum.IntEnum):
    """The four message verbs, as encoded in header bits 4-5."""

    PING = 0      # reachability probe / bare acknowledgement
    TELL = 1      # assert a belief or deliver a value
    ASK = 2       # request information or action
    OBSERVE = 3   # subscribe to a topic


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


_HEADER = struct.Struct(">BBHHH")
_OPTION_HEAD = struct.Struct(">BH")
_U16 = struct.Struct(">H")


@dataclass(frozen=True)
class Option:
    """One type-length-value option."""

    code: int
    value: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.code <= 0xFF:
            raise FieldRange(f"option code {self.code} not in 0..255", "option")
        if len(self.value) > OPTION_VALUE_LIMIT:
            raise OversizedOptions(
                f"option value of {len(self.value)} bytes cannot fit the "
                f"{OPTIONS_LIMIT}-byte options section",
                "option",
            )

    @property
    def wire_size(self) -> int:
        return 3 + len(self.value)


@dataclass(frozen=True)
class Header:
    """Decoded 64-bit fixed header."""

    verb: Verb
    qos: int = 0
    flags: int = 0
    message_id: int = 0
    sequence: int = 0
    correlation_id: int = 0
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if not 0 <= self.version <= 0xF:
            raise FieldRange(f"version {self.version} not in 0..15")
        if not 0 <= self.qos <= 3:
            raise FieldRange(f"qos {self.qos} not in 0..3")
        if not 0 <= self.flags <= 0xFF:
            raise FieldRange(f"flags {self.flags:#x} not in 0..255")
        for name in ("message_id", "sequence", "correlation_id"):
            v = getattr(self, name)
            if not 0 <= v <= 0xFFFF:
                raise FieldRange(f"{name} {v} not in 0..65535")
        object.__setattr__(self, "verb", Verb(self.verb))

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)

    @property
    def is_error(self) -> bool:
        return bool(self.flags & FLAG_ERROR)


@dataclass(frozen=True)
class Message:
    """A complete message: header, option sequence, payload.

    Options keep their wire order and duplicates are allowed; several
    processing rules (consensus promises, for one) rely on repeated
    option codes.
    """

    header: Header
    options: tuple[Option, ...] = ()
    payload: bytes = b""

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", tuple(self.options))
        if len(self.options) > OPTION_COUNT_LIMIT:
            raise TooManyOptions(
                f"{len(self.options)} options exceed count limit "
                f"{OPTION_COUNT_LIMIT}",
                "count-cap",
            )
        total = sum(o.wire_size for o in self.options)
        if total > OPTIONS_LIMIT:
            raise OversizedOptions(
                f"options section is {total} bytes, limit {OPTIONS_LIMIT}",
                "options-size",
            )
        if len(self.payload) > PAYLOAD_LIMIT:
            raise OversizedPayload(
                f"payload is {len(self.payload)} bytes, limit {PAYLOAD_LIMIT}",
                "payload",
            )

    @property
    def verb(self) -> Verb:
        return self.header.verb

    @property
    def wire_size(self) -> int:
        return (
            HEADER_SIZE
            + 1
            + sum(o.wire_size for o in self.options)
            + 2
            + len(self.payload)
        )

    def find(self, code: int) -> Option | None:
        """First option with the given code, or None."""
        for opt in self.options:
            if opt.code == code:
                return opt
        return None

    def find_all(self, code: int) -> tuple[Option, ...]:
        return tuple(o for o in self.options if o.code == code)

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
        Header(
            verb=Verb(verb),
            qos=qos,
            flags=flags,
            message_id=message_id,
            sequence=sequence,
            correlation_id=correlation_id,
        ),
        tuple(options),
        payload,
    )


def encode(msg: Message) -> bytes:
    """Serialize a message to its canonical wire form.

    Encoding is a bijection with decode() on well-formed messages:
    option order is preserved and there is exactly one byte string per
    message value.
    """
    h = msg.header
    parts = [
        _HEADER.pack(
            (h.version << 4) | (h.verb << 2) | h.qos,
            h.flags,
            h.message_id,
            h.sequence,
            h.correlation_id,
        ),
        bytes((len(msg.options),)),
    ]
    append = parts.append
    for opt in msg.options:
        append(_OPTION_HEAD.pack(opt.code, len(opt.value)))
        append(opt.value)
    append(_U16.pack(len(msg.payload)))
    append(msg.payload)
    return b"".join(parts)


def decode(data: bytes) -> Message:
    """Parse wire bytes into a Message.

    Raises a WireError subclass for any malformed input; never raises
    anything else, regardless of input bytes.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    n = len(data)
    if n < MIN_MESSAGE_SIZE:
        raise Truncated(f"{n} bytes, minimum message is {MIN_MESSAGE_SIZE}")
    b0, flags, mid, seq, cid = _HEADER.unpack_from(data, 0)
    version = b0 >> 4
    if version != PROTOCOL_VERSION:
        raise BadVersion(f"version {version}, expected {PROTOCOL_VERSION}")
    verb = Verb((b0 >> 2) & 0x3)
    qos = b0 & 0x3

    pos = HEADER_SIZE
    count = data[pos]
    pos += 1
    options = []
    section = 0
    for _ in range(count):
        if pos + 3 > n:
            raise Truncated("option header runs past end of input", "option")
        code, vlen = _OPTION_HEAD.unpack_from(data, pos)
        pos += 3
        if pos + vlen > n:
            raise Truncated("option value runs past end of input", "option")
        section += 3 + vlen
        if section > OPTIONS_LIMIT:
            raise OversizedOptions(
                f"options section exceeds {OPTIONS_LIMIT} bytes",
                "options-size",
            )
        options.append(Option(code, data[pos:pos + vlen]))
        pos += vlen
    if pos + 2 > n:
        raise Truncated("payload length field runs past end of input", "payload")
    (plen,) = _U16.unpack_from(data, pos)
    pos += 2
    if pos + plen > n:
        raise Truncated("payload runs past end of input", "payload")
    payload = data[pos:pos + plen]
    pos += plen
    if pos != n:
        raise LengthMismatch(
            f"{n - pos} trailing bytes after message end", "payload"
        )
    return Message(
        Header(
            verb=verb,
            qos=qos,
            flags=flags,
            message_id=mid,
            sequence=seq,
            correlation_id=cid,
        ),
        tuple(options),
        payload,
    )


@dataclass(frozen=True)
class Violation:
    """One failed well-formedness clause."""

    clause: str   # "header" | "verb" | "option" | "options-size" |
                  # "payload" | "count-cap"
    detail: str


#: The five structural clauses, in check order, plus the option-count
#: cap which is enforced by the byte format rather than the value model.
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

    Unlike the dataclass constructors, this accepts arbitrary integers
    and reports all violations with the clause that failed, so a single
    bad artifact can be diagnosed completely.
    """
    out: list[Violation] = []
    ranges = {
        "version": (version, 0xF),
        "qos": (qos, 3),
        "flags": (flags, 0xFF),
        "message_id": (message_id, 0xFFFF),
        "sequence": (sequence, 0xFFFF),
        "correlation_id": (correlation_id, 0xFFFF),
    }
    for name, (value, hi) in ranges.items():
        if not 0 <= value <= hi:
            out.append(Violation("header", f"{name}={value} not in 0..{hi}"))
    if version != PROTOCOL_VERSION and 0 <= version <= 0xF:
        out.append(
            Violation("header", f"version={version} is not {PROTOCOL_VERSION}")
        )
    if verb not in (0, 1, 2, 3):
        out.append(Violation("verb", f"verb={verb} not in 0..3"))
    section = 0
    for i, (code, value) in enumerate(options):
        if not 0 <= code <= 0xFF:
            out.append(Violation("option", f"option {i}: code={code}"))
        if len(value) > OPTION_VALUE_LIMIT:
            out.append(
                Violation(
                    "option",
                    f"option {i}: value of {len(value)} bytes exceeds "
                    f"{OPTION_VALUE_LIMIT}",
                )
            )
        section += 3 + len(value)
    if section > OPTIONS_LIMIT:
        out.append(
            Violation(
                "options-size",
                f"options section {section} bytes, limit {OPTIONS_LIMIT}",
            )
        )
    if len(payload) > PAYLOAD_LIMIT:
        out.append(
            Violation(
                "payload",
                f"payload {len(payload)} bytes, limit {PAYLOAD_LIMIT}",
            )
        )
    if len(options) > OPTION_COUNT_LIMIT:
        out.append(
            Violation(
                "count-cap",
                f"{len(options)} options, count limit {OPTION_COUNT_LIMIT}",
            )
        )
    return out


def validate(data: bytes) -> list[Violation]:
    """Check wire bytes against the well-formedness clauses.

    Returns an empty list iff decode() succeeds: decode and the value
    constructors enforce every clause, so a failure is reported under
    the clause it breaks, or, for structural failures that prevent
    parsing at all (truncation, trailing bytes), under the clause whose
    field could not be read.
    """
    try:
        decode(data)
    except WireError as e:
        return [Violation(e.clause, str(e))]
    return []


# Option value codecs for the registered numeric options.

def encode_u32(value: int) -> bytes:
    return struct.pack(">I", value)


def decode_u32(value: bytes) -> int:
    if len(value) != 4:
        raise WireError(f"expected 4-byte integer option, got {len(value)}")
    return struct.unpack(">I", value)[0]


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
