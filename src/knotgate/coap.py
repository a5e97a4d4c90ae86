"""Minimal CoAP over UDP: confirmable POST requests, piggybacked ACK responses.

Covers exactly what constrained devices need to push readings: parse a CON
request, extract Uri-Path options and payload, reply with an ACK carrying
the response code and payload.  No observe, no blockwise, no NON flows.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable

log = logging.getLogger(__name__)

TYPE_CON = 0
TYPE_NON = 1
TYPE_ACK = 2
TYPE_RST = 3

GET = 1
POST = 2

OPTION_URI_PATH = 11
OPTION_CONTENT_FORMAT = 12


def code(cls: int, detail: int) -> int:
    return (cls << 5) | detail


CREATED = code(2, 1)
CONTENT = code(2, 5)
BAD_REQUEST = code(4, 0)
NOT_FOUND = code(4, 4)
METHOD_NOT_ALLOWED = code(4, 5)
UNPROCESSABLE = code(4, 22)
INTERNAL_ERROR = code(5, 0)


class CoapFormatError(ValueError):
    pass


@dataclass
class CoapMessage:
    mtype: int
    code: int
    message_id: int
    token: bytes = b""
    options: list[tuple[int, bytes]] = field(default_factory=list)
    payload: bytes = b""

    def uri_path(self) -> list[str]:
        return [v.decode("utf-8") for n, v in self.options if n == OPTION_URI_PATH]


def _encode_option_part(value: int) -> tuple[int, bytes]:
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    return 14, struct.pack(">H", value - 269)


def encode_message(msg: CoapMessage) -> bytes:
    if len(msg.token) > 8:
        raise CoapFormatError("token longer than 8 bytes")
    out = bytearray()
    out.append((1 << 6) | (msg.mtype << 4) | len(msg.token))
    out.append(msg.code)
    out += struct.pack(">H", msg.message_id)
    out += msg.token
    last = 0
    for number, value in sorted(msg.options, key=lambda o: o[0]):
        delta = number - last
        last = number
        dnib, dext = _encode_option_part(delta)
        lnib, lext = _encode_option_part(len(value))
        out.append((dnib << 4) | lnib)
        out += dext + lext + value
    if msg.payload:
        out.append(0xFF)
        out += msg.payload
    return bytes(out)


def _decode_option_part(nibble: int, data: bytes, pos: int) -> tuple[int, int]:
    if nibble < 13:
        return nibble, pos
    if nibble == 13:
        if pos >= len(data):
            raise CoapFormatError("truncated option extension")
        return data[pos] + 13, pos + 1
    if nibble == 14:
        if pos + 2 > len(data):
            raise CoapFormatError("truncated option extension")
        return struct.unpack(">H", data[pos : pos + 2])[0] + 269, pos + 2
    raise CoapFormatError("reserved option nibble 15")


def decode_message(data: bytes) -> CoapMessage:
    if len(data) < 4:
        raise CoapFormatError("datagram shorter than header")
    version = data[0] >> 6
    if version != 1:
        raise CoapFormatError(f"unsupported version {version}")
    mtype = (data[0] >> 4) & 0x03
    tkl = data[0] & 0x0F
    if tkl > 8:
        raise CoapFormatError("token longer than 8 bytes")
    mcode = data[1]
    (message_id,) = struct.unpack(">H", data[2:4])
    pos = 4
    if pos + tkl > len(data):
        raise CoapFormatError("truncated token")
    token = data[pos : pos + tkl]
    pos += tkl
    options: list[tuple[int, bytes]] = []
    number = 0
    while pos < len(data):
        byte = data[pos]
        if byte == 0xFF:
            pos += 1
            if pos >= len(data):
                raise CoapFormatError("payload marker without payload")
            return CoapMessage(mtype, mcode, message_id, token, options, data[pos:])
        pos += 1
        delta, pos = _decode_option_part(byte >> 4, data, pos)
        length, pos = _decode_option_part(byte & 0x0F, data, pos)
        if pos + length > len(data):
            raise CoapFormatError("truncated option value")
        number += delta
        options.append((number, data[pos : pos + length]))
        pos += length
    return CoapMessage(mtype, mcode, message_id, token, options, b"")


#: request handler: (method code, uri path segments, payload) -> (code, payload)
CoapHandler = Callable[[int, list[str], bytes], tuple[int, bytes]]


class CoapServer:
    """Single-socket UDP server answering confirmable requests via ACK."""

    def __init__(self, handler: CoapHandler, host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._closing = False

    def start(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((self.host, self._requested_port))
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._thread = threading.Thread(target=self._serve, name="coap-server", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._closing = True
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass

    def _serve(self) -> None:
        while not self._closing:
            try:
                data, addr = self._sock.recvfrom(65536)
            except OSError:
                return
            try:
                request = decode_message(data)
            except CoapFormatError as exc:
                log.warning("dropping undecodable datagram from %s: %s", addr, exc)
                continue
            if request.mtype != TYPE_CON or not 1 <= request.code <= 31:
                continue  # only confirmable requests are served
            try:
                rcode, payload = self.handler(request.code, request.uri_path(), request.payload)
            except Exception:
                log.exception("coap handler failed")
                rcode, payload = INTERNAL_ERROR, b""
            reply = CoapMessage(
                mtype=TYPE_ACK,
                code=rcode,
                message_id=request.message_id,
                token=request.token,
                payload=payload,
            )
            try:
                self._sock.sendto(encode_message(reply), addr)
            except OSError:
                log.warning("failed to send coap reply to %s", addr)


def request(
    host: str,
    port: int,
    method: int,
    path: list[str],
    payload: bytes = b"",
    timeout: float = 2.0,
    retries: int = 2,
) -> tuple[int, bytes]:
    """One confirmable exchange; returns (response code, payload).

    Retransmits the request on timeout, as confirmable messages require.
    """
    message_id = abs(hash((host, port, tuple(path), payload))) & 0xFFFF
    msg = CoapMessage(
        mtype=TYPE_CON,
        code=method,
        message_id=message_id,
        token=struct.pack(">H", message_id),
        options=[(OPTION_URI_PATH, seg.encode("utf-8")) for seg in path],
        payload=payload,
    )
    datagram = encode_message(msg)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(timeout)
    try:
        for _ in range(retries + 1):
            sock.sendto(datagram, (host, port))
            try:
                while True:
                    data, _ = sock.recvfrom(65536)
                    reply = decode_message(data)
                    if reply.message_id == message_id:
                        return reply.code, reply.payload
            except socket.timeout:
                continue
        raise TimeoutError(f"no CoAP reply from {host}:{port}")
    finally:
        sock.close()
