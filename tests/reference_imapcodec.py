"""Test oracle for the FETCH attribute tokenizer."""

import re

from chamail.errors import ImapSyntaxError

_FETCH_KEY_RE = re.compile(rb"[A-Za-z0-9.]+(?:\[[^\]]*\])?(?:<[0-9.]+>)?")


def reference_parse_fetch_attrs(attrs: bytes) -> list[tuple[str, bytes | int | None]]:
    """parse_fetch_attrs as it was before it tokenized with compiled
    patterns: a byte-by-byte scan, kept as the oracle."""
    data = attrs
    if not data.startswith(b"(") or not data.endswith(b")"):
        raise ImapSyntaxError("FETCH attributes must be parenthesized")
    data = data[1:-1]
    pos = 0
    out: list[tuple[str, bytes | int | None]] = []

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(data) and data[pos : pos + 1] in (b" ", b"\r", b"\n"):
            pos += 1

    def read_value() -> bytes | int | None:
        nonlocal pos
        c = data[pos : pos + 1]
        if c == b"(":
            depth = 0
            start = pos
            while pos < len(data):
                ch = data[pos : pos + 1]
                if ch == b'"':
                    pos += 1
                    while pos < len(data) and data[pos : pos + 1] != b'"':
                        pos += 2 if data[pos : pos + 1] == b"\\" else 1
                    pos += 1
                    continue
                if ch == b"{":
                    lm = re.match(rb"\{(\d+)\}\r\n", data[pos:])
                    if lm:
                        pos += lm.end() + int(lm.group(1))
                        continue
                if ch == b"(":
                    depth += 1
                elif ch == b")":
                    depth -= 1
                    if depth == 0:
                        pos += 1
                        return data[start:pos]
                pos += 1
            raise ImapSyntaxError("unbalanced parens in FETCH attributes")
        if c == b'"':
            out_b = bytearray()
            pos += 1
            while pos < len(data):
                ch = data[pos : pos + 1]
                if ch == b"\\":
                    out_b += data[pos + 1 : pos + 2]
                    pos += 2
                elif ch == b'"':
                    pos += 1
                    return bytes(out_b)
                else:
                    out_b += ch
                    pos += 1
            raise ImapSyntaxError("unterminated quoted string in FETCH attributes")
        if c == b"{":
            lm = re.match(rb"\{(\d+)\}\r\n", data[pos:])
            if not lm:
                raise ImapSyntaxError("malformed literal in FETCH attributes")
            size = int(lm.group(1))
            start = pos + lm.end()
            if start + size > len(data):
                raise ImapSyntaxError("truncated literal in FETCH attributes")
            pos = start + size
            return data[start : start + size]
        m = re.match(rb"[^ ()]+", data[pos:])
        if not m:
            raise ImapSyntaxError("expected FETCH attribute value")
        token = m.group(0)
        pos += m.end()
        if token == b"NIL":
            return None
        if token.isdigit():
            return int(token)
        return token

    while True:
        skip_ws()
        if pos >= len(data):
            return out
        km = _FETCH_KEY_RE.match(data, pos)
        if not km:
            raise ImapSyntaxError(f"bad FETCH attribute name at {data[pos : pos + 20]!r}")
        key = km.group(0).decode("ascii").upper()
        pos = km.end()
        skip_ws()
        out.append((key, read_value()))
