"""Deterministic mailbox generator for the benchmark.

`generate(seed, n)` returns the account's mailboxes as message specs:
small records that say who sent each message, what its subject and
plain-text part say, which MIME shape it has and how large its attachment
is. `render(spec)` turns a spec into the exact RFC 5322 bytes, drawing all
filler from a generator seeded by the spec alone, so the stand-in server
and the load generator can each build the same bytes without sharing them.

The ground truth for every sub-user policy is computed here from the specs,
independently of `chamail.policy`.
"""

from __future__ import annotations

import base64
import functools
import quopri
import random
from dataclasses import dataclass

ACCOUNT = "owner@example.org"
UPSTREAM_PASSWORD = "upstream-pass-1234"
OWNER_PASSWORD = "owner-pass-5678"
MASTER_KEY_HEX = "5a" * 32

FORBID_KW = "kestrel"
REQUIRE_KW = "ledger"

# (name, password, policy) for the four sub-users, in store order: a LOGIN
# as the k-th one costs 1 + k Argon2id derivations.
SUBUSERS = (
    ("s1", "sub1-pass-aaaa", "blacklist:exes"),
    ("s2", "sub2-pass-bbbb", "blacklist:exes+forbid:" + FORBID_KW),
    ("s3", "sub3-pass-cccc", "whitelist:work"),
    ("s4", "sub4-pass-dddd", "require:" + REQUIRE_KW),
)

N_SENDERS = 200
ZIPF_S = 0.8
SEEN_SHARE = 0.7
FORBID_SHARE = 0.1
REQUIRE_SHARE = 0.4
ATTACH_EVERY = 50  # one attachment message per block of 50: about 2%
ATTACH_MIN, ATTACH_MAX = 512 * 1024, 1024 * 1024

WORDS = (
    "meeting agenda notes update weekly report draft review summary project "
    "status team schedule plan travel photos dinner weekend garden school "
    "invoice receipt order shipping delivery account renewal reminder "
    "question answer follow call tomorrow today morning evening office home "
    "family friends party birthday holiday budget numbers quarter results "
    "design proposal feedback changes version release build test server "
    "client network backup storage music movie book library concert ticket "
    "recipe kitchen coffee lunch market price offer sale discount newsletter "
    "article news story weather river mountain city train flight hotel"
).split()
TOPICS = WORDS[:40]
for _w in WORDS:  # filler must never spell a keyword or a canary by accident
    assert FORBID_KW not in _w and REQUIRE_KW not in _w and "cnry" not in _w

KINDS = ("plain", "alternative", "base64", "qp")


@dataclass(frozen=True)
class Spec:
    """One message: enough to render its bytes and to decide its visibility."""

    uid: int
    key: int  # seeds the filler, independent of position
    sender: str
    sender_name: str
    subject: str
    canary: str
    kind: str  # plain | alternative | base64 | qp
    attach: int  # attachment payload bytes, 0 for none
    forbid_in: str  # where FORBID_KW occurs: "", "subject" or "body"
    require_in: str  # where REQUIRE_KW occurs: "", "subject" or "body"
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Mailbox:
    name: str
    uidvalidity: int
    specs: tuple[Spec, ...]

    @property
    def uidnext(self) -> int:
        return self.specs[-1].uid + 1 if self.specs else 1


@dataclass(frozen=True)
class Account:
    seed: int
    senders: tuple[str, ...]  # by frequency rank
    exes: frozenset[str]
    work: frozenset[str]
    inbox: Mailbox
    archive: Mailbox


def sender_address(rank: int) -> str:
    return f"person{rank:03d}@mail{rank % 7}.example.com"


def _senders() -> tuple[tuple[str, ...], frozenset[str], frozenset[str], list[float]]:
    senders = tuple(sender_address(r) for r in range(N_SENDERS))
    # Every third sender by rank is an ex, so the hidden share is the same
    # for every seed; only which messages are hidden changes.
    exes = frozenset(s for r, s in enumerate(senders) if r % 3 == 1)
    work = frozenset(s for r, s in enumerate(senders) if r % 4 == 0)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(N_SENDERS)]
    return senders, exes, work, weights


class _Maker:
    """Draws message specs from one seeded stream."""

    def __init__(self, seed: int, stream: str):
        self.rng = random.Random(f"{seed}:{stream}")
        self.senders, _, _, self.weights = _senders()

    def spec(self, uid: int, attach: int, flags: tuple[str, ...] | None = None) -> Spec:
        rng = self.rng
        rank = rng.choices(range(N_SENDERS), self.weights)[0]
        # keywords sit in the subject or in the plain-text part, half each
        forbid_in = require_in = ""
        if rng.random() < FORBID_SHARE:
            forbid_in = rng.choice(("subject", "body"))
        if rng.random() < REQUIRE_SHARE:
            require_in = rng.choice(("subject", "body"))
        words = rng.sample(TOPICS, 3)
        if forbid_in == "subject":
            words.append(FORBID_KW.capitalize())
        if require_in == "subject":
            words.append(REQUIRE_KW)
        canary = "cnry%010x" % rng.getrandbits(40)
        if flags is None:
            flags = ("\\Seen",) if rng.random() < SEEN_SHARE else ()
            if rng.random() < 0.05:
                flags = ("\\Flagged",) + flags
        return Spec(
            uid=uid,
            key=rng.getrandbits(48),
            sender=self.senders[rank],
            sender_name=f"Person {rank}",
            subject=" ".join(words) + " " + canary,
            canary=canary,
            kind=rng.choice(KINDS),
            attach=attach,
            forbid_in=forbid_in,
            require_in=require_in,
            flags=flags,
        )

    def mailbox(self, name: str, n: int, uidvalidity: int) -> Mailbox:
        rng = self.rng
        attach_at = {
            block + rng.randrange(ATTACH_EVERY) for block in range(0, n, ATTACH_EVERY)
        }
        specs = []
        uid = 0
        for i in range(n):
            # UID gaps from past expunges, so UIDs never equal sequence numbers
            uid += 1 if rng.random() < 0.9 else rng.randint(2, 6)
            attach = rng.randint(ATTACH_MIN, ATTACH_MAX) if i in attach_at else 0
            specs.append(self.spec(uid, attach))
        return Mailbox(name, uidvalidity, tuple(specs))


def generate(seed: int, n: int) -> Account:
    """The account for *seed*: INBOX of *n* messages and an Archive of n/4."""
    senders, exes, work, _ = _senders()
    maker = _Maker(seed, "mailbox")
    inbox = maker.mailbox("INBOX", n, 1000 + seed % 1000)
    archive = maker.mailbox("Archive", n // 4, 2000 + seed % 1000)
    return Account(seed, senders, exes, work, inbox, archive)


class Arrivals:
    """Seeded stream of new messages for the churn workload (no attachments)."""

    def __init__(self, seed: int):
        self._maker = _Maker(seed, "arrivals")

    def next(self, uid: int) -> Spec:
        return self._maker.spec(uid, 0, flags=())


# -- ground truth ----------------------------------------------------------------


def _part_passes(part: str, spec: Spec, account: Account) -> bool:
    mode, _, arg = part.partition(":")
    if mode == "blacklist":
        return spec.sender not in getattr(account, arg)
    if mode == "whitelist":
        return spec.sender in getattr(account, arg)
    if mode == "forbid":
        return not spec.forbid_in
    if mode == "require":
        return bool(spec.require_in)
    raise ValueError(f"unknown policy part {part!r}")


def visible(policy: str, spec: Spec, account: Account) -> bool:
    """Whether *spec* is visible under one of the SUBUSERS policy strings."""
    return all(_part_passes(part, spec, account) for part in policy.split("+"))


def needs_body(policy: str, spec: Spec, account: Account) -> bool:
    """Whether the proxy must read *spec*'s body excerpt to decide: the
    policy has a keyword constraint and every sender constraint passes."""
    parts = policy.split("+")
    senders = [p for p in parts if p.startswith(("blacklist:", "whitelist:"))]
    return len(senders) < len(parts) and all(_part_passes(p, spec, account) for p in senders)


def policy_of(subuser: str) -> str:
    return next(policy for name, _, policy in SUBUSERS if name == subuser)


# -- rendering -----------------------------------------------------------------------


def _filler(rng: random.Random, n_words: int) -> str:
    words = rng.choices(WORDS, k=n_words)
    return "\r\n".join(" ".join(words[i : i + 11]) for i in range(0, n_words, 11))


def plain_text(spec: Spec) -> str:
    """The decoded text/plain part: what the policy engine's excerpt reads."""
    rng = random.Random(spec.key)
    text = _filler(rng, rng.randint(40, 400))
    extra = []
    if spec.forbid_in == "body":
        extra.append(f"About the {FORBID_KW} thing.")
    if spec.require_in == "body":
        extra.append(f"See the {REQUIRE_KW} entry.")
    return "\r\n".join(["Hello,", "", *extra, text, "", "Regards"]) + "\r\n"


def _b64_lines(data: bytes) -> bytes:
    enc = base64.b64encode(data)
    return b"".join(enc[i : i + 76] + b"\r\n" for i in range(0, len(enc), 76))


# Attachments are windows into one doubled pool of base64 lines: every
# 76-character line encodes 57 bytes on its own, so any run of whole lines
# is valid base64, and slicing is far cheaper than encoding fresh bytes.
_LINE = 78
_POOL_LINES = -(-ATTACH_MAX // 57)


@functools.cache
def _attachment_pool() -> bytes:
    lines = _b64_lines(random.Random(0).randbytes(_POOL_LINES * 57))
    return lines + lines


def _attachment(key: int, size: int) -> bytes:
    start = key % _POOL_LINES * _LINE
    return _attachment_pool()[start : start + size // 57 * _LINE]


def render(spec: Spec) -> bytes:
    """The exact bytes of *spec*, CRLF line ends throughout."""
    rng = random.Random(spec.key ^ 0x5EED)
    text = plain_text(spec)
    headers = [
        f'From: "{spec.sender_name}" <{spec.sender}>',
        f"To: {ACCOUNT}",
        f"Subject: {spec.subject}",
        f"Date: Mon, {1 + spec.uid % 28:02d} Jan 2024 {spec.uid % 24:02d}:{spec.uid % 60:02d}:00 +0000",
        f"Message-ID: <{spec.canary}.{spec.uid}@gen.example.com>",
        "MIME-Version: 1.0",
    ]
    if spec.kind == "plain":
        part_hdr = "Content-Type: text/plain; charset=utf-8\r\nContent-Transfer-Encoding: 7bit"
        part_body = text.encode()
    elif spec.kind == "base64":
        part_hdr = "Content-Type: text/plain; charset=utf-8\r\nContent-Transfer-Encoding: base64"
        part_body = _b64_lines(text.encode())
    else:  # qp, and the plain half of alternative
        part_hdr = (
            "Content-Type: text/plain; charset=utf-8\r\n"
            "Content-Transfer-Encoding: quoted-printable"
        )
        part_body = quopri.encodestring(text.encode().replace(b"\r\n", b"\n")).replace(
            b"\n", b"\r\n"
        )
    parts = [(part_hdr, part_body)]
    if spec.kind == "alternative":
        html = "<html><body><p>" + _filler(rng, rng.randint(60, 600)) + "</p></body></html>"
        parts.append(("Content-Type: text/html; charset=utf-8", html.encode() + b"\r\n"))
    if spec.attach:
        parts.append(
            (
                "Content-Type: application/octet-stream; name=\"data.bin\"\r\n"
                "Content-Disposition: attachment; filename=\"data.bin\"\r\n"
                "Content-Transfer-Encoding: base64",
                _attachment(spec.key, spec.attach),
            )
        )
    if len(parts) == 1:
        head = "\r\n".join(headers + [part_hdr]).encode()
        return head + b"\r\n\r\n" + part_body
    boundary = f"=_b{spec.key:012x}"
    subtype = "mixed" if spec.attach else "alternative"
    headers.append(f'Content-Type: multipart/{subtype}; boundary="{boundary}"')
    out = bytearray("\r\n".join(headers).encode() + b"\r\n\r\n")
    out += b"This is a multi-part message in MIME format.\r\n"
    for hdr, body in parts:
        out += f"--{boundary}\r\n{hdr}\r\n\r\n".encode() + body
        if not body.endswith(b"\r\n"):
            out += b"\r\n"
    out += f"--{boundary}--\r\n".encode()
    return bytes(out)


def properties(account: Account) -> dict:
    """Input properties of the generated INBOX, recorded with every run."""
    specs = account.inbox.specs
    n = len(specs)
    hidden = {
        name: round(sum(not visible(policy, s, account) for s in specs) / n, 4)
        for name, _, policy in SUBUSERS
    }
    excerpt = {
        name: round(sum(needs_body(policy, s, account) for s in specs) / n, 4)
        for name, _, policy in SUBUSERS
    }
    kinds = {k: round(sum(s.kind == k for s in specs) / n, 4) for k in KINDS}
    sizes = sorted(len(render(s)) for s in specs)
    return {
        "n": n,
        "archive_n": len(account.archive.specs),
        "hidden_share": hidden,
        "body_excerpt_share": excerpt,
        "kind_share": kinds,
        "attachment_share": round(sum(1 for s in specs if s.attach) / n, 4),
        "attachment_bytes": sum(s.attach for s in specs),
        "size_bytes": {f"p{q}": sizes[min(n - 1, n * q // 100)] for q in (10, 50, 90, 99)},
        "seen_share": round(sum("\\Seen" in s.flags for s in specs) / n, 4),
    }
