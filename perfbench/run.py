"""chamail benchmark: a real IMAP client over loopback, proxy and upstream in
processes of their own.

    python3 perfbench/run.py --workload owner-mail --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

* owner-mail    owner sessions on N=4000, each replayed directly against the
                stand-in; the two transcripts must be byte-identical.
* subuser-mail  the same script, the four sub-users in rotation; every fifth
                session first sends a wrong password, which must get NO.
* subuser-churn one sub-user on N=2000 polling NOOP while messages arrive
                and are expunged between polls; each expunge burst comes
                before that poll's arrivals.
* subuser-churn-mixed
                the same, with half of the bursts after the arrivals; not
                in BENCHMARK.json (see README.md).

The loop is closed: one connection, one command in flight. With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 sessions
switch between untraced and traced, and the last line holds the per-layer
metrics and the tracing overhead. Every response is checked against the
generator's ground truth; a failed check makes `correct` false.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
SIZES = {"owner-mail": 4000, "subuser-mail": 4000, "subuser-churn": 2000, "subuser-churn-mixed": 2000}
CHURN_SUBUSER = "s2"  # sender and keyword rules, so newcomers from allowed senders need a body read
POLLS_PER_SESSION = 20
HEADERS_PAGE = 50
BODIES_PER_SESSION = 10
BULK_RANGE = 200
BULK_ATTACHMENTS = 3
WRONG_PASSWORD_EVERY = 5
STALL_MS = 40  # Linux's minimum delayed-ACK timeout, which Nagle's algorithm waits on

END_TO_END = {
    "setup_s": "s",
    "login_ms": "ms",
    "select_ms": "ms",
    "reselect_ms": "ms",
    "flags_sync_ms": "ms",
    "headers_ms": "ms",
    "body_ms": "ms",
    "bulk_mb_per_s": "MB/s",
    "bulk_first_byte_ms": "ms",
    "search_ms": "ms",
    "status_ms": "ms",
    "poll_ms": "ms",
    "sync_s": "s",
    "proxy_rss_mb": "MB",
}
# Measured and printed on the information line, but not on the result line
# nor in BENCHMARK.json. In two sets of ten seeds on a 2-vCPU VM their
# spread (q3 - q1) / median exceeded 0.25, the largest bound allowed, on
# at least one workload (perfbench/baseline.json): LOGIN up to 0.81 (each
# sample is 2 to 5 Argon2id derivations over 32 MiB), the bulk download's
# first byte up to 1.07 and its throughput up to 0.28 (megabytes through
# fresh buffers, with or without the proxy's 40 ms stall), and NOOP up to
# 0.58 (a sub-millisecond round trip through three processes on the owner
# and sub-user mail workloads).
UNGATED = ("login_ms", "bulk_first_byte_ms", "bulk_mb_per_s", "poll_ms")
GATED = {name: unit for name, unit in END_TO_END.items() if name not in UNGATED}


def _fail_without_program() -> None:
    if not (SRC / "chamail" / "__init__.py").is_file():
        print(f"error: {SRC / 'chamail'} not found; run from a chamail checkout", file=sys.stderr)
        sys.exit(2)


_fail_without_program()
sys.path[:0] = [str(SRC), str(HERE)]

from chamail.credstore import CredStore, UpstreamSpec  # noqa: E402
from chamail.policy import KeywordConstraint, KeywordMode, PolicySet, SenderConstraint, SenderMode  # noqa: E402
from chamail.store import parse_master_key  # noqa: E402
import cryptography  # noqa: E402

import checks  # noqa: E402
import mailgen  # noqa: E402
import tracing  # noqa: E402
from client import Client, SessionLost  # noqa: E402


# -- the stack: stand-in and proxy processes ------------------------------------------


def _policy(text: str) -> PolicySet:
    senders, keywords = [], []
    for part in text.split("+"):
        mode, _, arg = part.partition(":")
        if mode in ("blacklist", "whitelist"):
            senders.append(SenderConstraint(SenderMode(mode), arg))
        else:
            kmode = KeywordMode.FORBID_ANY if mode == "forbid" else KeywordMode.REQUIRE_ANY
            keywords.append(KeywordConstraint(kmode, frozenset({arg})))
    return PolicySet(tuple(senders), tuple(keywords))


def build_store(path: Path, account: mailgen.Account) -> None:
    """The account, its two lists and four sub-users, at production KDF cost.

    The stored upstream port is a placeholder: the proxy launcher overrides
    it with the stand-in's, so the store can be built while the stand-in
    starts.
    """
    if path.exists():
        path.unlink()
    cs = CredStore(str(path))
    master_key = parse_master_key(mailgen.MASTER_KEY_HEX)
    cs.create_account(
        mailgen.ACCOUNT,
        UpstreamSpec(host="127.0.0.1", port=143,
                     password=mailgen.UPSTREAM_PASSWORD, upstream_login=mailgen.ACCOUNT),
        mailgen.OWNER_PASSWORD,
        master_key,
    )
    for name in ("exes", "work"):
        cs.manage_list(mailgen.ACCOUNT, "create", name)
        for member in sorted(getattr(account, name)):
            cs.manage_list(mailgen.ACCOUNT, "add-member", name, member)
    for name, password, policy in mailgen.SUBUSERS:
        cs.add_subuser(mailgen.ACCOUNT, name, password, _policy(policy))


class Child:
    """A helper process speaking JSON lines on stdin/stdout."""

    def __init__(self, argv: list[str], env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, cwd=ROOT, text=True,
        )

    def request(self, obj: dict | None = None) -> dict:
        """Send *obj* (if any) as one line; return the next line's object."""
        if obj is not None:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited with {self.proc.wait()}")
        return json.loads(line)

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


class Stack:
    """Stand-in and proxy for one mailbox; `start()` is the timed set-up."""

    def __init__(self, seed: int, n: int, work: Path):
        self.seed, self.n, self.work = seed, n, work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
                        CHAMAIL_MASTER_KEY=mailgen.MASTER_KEY_HEX)
        self.standin: Child | None = None
        self.proxy: Child | None = None

    def start(self) -> float:
        start = time.monotonic()
        self.standin = Child(
            [str(HERE / "standin.py"), "--seed", str(self.seed), "--n", str(self.n),
             "--spans", str(self.work / "standin.spans")], self.env)
        self.account = mailgen.generate(self.seed, self.n)
        store = self.work / "store.json"
        build_store(store, self.account)
        self.upstream_port = self.standin.request()["port"]
        self.proxy = Child(
            [str(HERE / "proxy_main.py"), "--store", str(store),
             "--upstream-port", str(self.upstream_port), "--out", str(self.work / "proxy.json")],
            self.env)
        self.port = self.proxy.request()["port"]
        Client(self.port).close()  # up to the first greeting
        return time.monotonic() - start

    def stop(self) -> None:
        """Stop both processes and wait for them to end."""
        for child in (self.proxy, self.standin):
            if child is not None:
                child.stop()
        self.proxy = self.standin = None

    def report(self) -> dict:
        """What the stopped processes left: the proxy's peak RSS and spans,
        and the stand-in's service spans."""
        report = json.loads((self.work / "proxy.json").read_text())
        if "spans" in report:
            report["spans"] = tracing.load(report["spans"], report["results"])
        spans = array("q")
        with open(self.work / "standin.spans", "rb") as fh:
            spans.frombytes(fh.read())
        report["standin_spans"] = spans
        return report


# -- sessions -------------------------------------------------------------------------


class Run:
    """Counts attempted and failed operations; keeps every timed op.

    Ops are kept with their group and session. A group is a session, or in
    subuser-mail a rotation of the four sub-users' sessions; workloads
    count groups in `group` and start a session with `start_session()`.
    With *trace* given, sessions are untraced (half 0) or traced (half 1)
    in Thue-Morse order, 0 1 1 0 1 0 0 1 ..., and *trace* is called with
    the half before a session that changes it. So both halves see as many
    early as late sessions, the same mailbox drift in churn, and in
    subuser-mail every sub-user once per half over two rotations.
    """

    def __init__(self, per_rotation: bool = False, trace=None):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.ops = []  # (half, (group, session), op)
        self.sync_s = []  # (half, (group, session), seconds)
        self.half = 0
        self.group = -1
        self.session = -1
        self.per_rotation = per_rotation
        self.trace = trace
        self.direct = []  # ops of owner sessions played straight against the stand-in

    def start_session(self) -> None:
        self.session += 1
        half = bin(self.session).count("1") % 2
        if self.trace is not None and half != self.half:
            self.half = half
            self.trace(half)

    def more(self, deadline: float) -> bool:
        """Whether to start another group: until *deadline*, and when
        tracing, for at least two groups, so that both halves have some."""
        return time.monotonic() < deadline or (self.trace is not None and self.group < 1)

    def record(self, op, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        if op is not None:
            self.ops.append((self.half, (self.group, self.session), op))


def mail_script(rng: random.Random, view: list[mailgen.Spec], senders) -> list[tuple[str, bytes]]:
    """One mail-client session after LOGIN, as (op, command) pairs."""
    k = len(view)
    script = [
        ("select", b"SELECT INBOX"),
        ("flags_sync", b"UID FETCH 1:* (UID FLAGS)"),
        ("headers", b"FETCH %d:%d (UID FLAGS RFC822.SIZE ENVELOPE)" % (max(1, k - HEADERS_PAGE + 1), k)),
    ]
    large = [s for s in view if s.attach]
    opened = rng.sample(view, BODIES_PER_SESSION - 1) + ([rng.choice(large)] if large else [])
    for spec in opened:  # reading a message, then the client's idle poll
        script += [("body", b"UID FETCH %d BODY.PEEK[]" % spec.uid), ("poll", b"NOOP")]
    # one of each kind per session, an odd count so the median is one kind's
    script += [
        ("search", b"SEARCH UNSEEN"),
        ("search", b"UID SEARCH FROM " + rng.choice(senders[:20]).encode()),
        ("search", b"SEARCH SUBJECT " + rng.choice(mailgen.TOPICS).encode()),
        ("search", b"UID SEARCH TEXT " + rng.choice(mailgen.WORDS).encode()),
        ("search", b"SEARCH ALL"),
        # the bulk download goes before STATUS: a sub-user STATUS leaves the
        # proxy freeing two evaluated mailboxes, which would delay the next
        # command's first byte by a varying amount
        ("bulk", bulk_command(view)),
        ("status", b"STATUS Archive (MESSAGES UNSEEN)"),
        ("reselect", b"SELECT INBOX"),
    ]
    return script


def bulk_command(view: list[mailgen.Spec]) -> bytes:
    """FETCH of a range of BULK_RANGE messages holding exactly
    BULK_ATTACHMENTS attachments whose sizes add up to within 2% of their
    mean total, not starting with one, the newest such range; so every
    download moves about the same bytes in the same mix of small and large
    bodies. Falls back to the closest range, then to the newest."""
    width = min(BULK_RANGE, len(view))
    target = BULK_ATTACHMENTS * (mailgen.ATTACH_MIN + mailgen.ATTACH_MAX) / 2
    count, size = [0], [0]
    for spec in view:
        count.append(count[-1] + (spec.attach > 0))
        size.append(size[-1] + spec.attach)
    ranges = [
        (abs(size[lo + width - 1] - size[lo - 1] - target) > 0.02 * target, -lo)
        for lo in range(1, len(view) - width + 2)
        if count[lo + width - 1] - count[lo - 1] == BULK_ATTACHMENTS and not view[lo - 1].attach
    ]
    lo = -min(ranges)[1] if ranges else len(view) - width + 1
    return b"FETCH %d:%d BODY.PEEK[]" % (lo, lo + width - 1)


def _login(name: str) -> bytes:
    password = mailgen.OWNER_PASSWORD if name == "owner" else next(
        p for n, p, _ in mailgen.SUBUSERS if n == name)
    return f"LOGIN {mailgen.ACCOUNT} {password}".encode()


def play(run: Run, port: int, login: bytes, script, expect: checks.Expect, view,
         hidden=None, wrong_first: bool = False, twin: Client | None = None) -> None:
    """Run LOGIN plus *script* on a new connection, then check each response.

    Checks run after LOGOUT, so the client sends each command as soon as the
    previous one completes. A pause of a few hundred milliseconds between
    commands would put the kernel's delayed ACK into quick-ACK mode and
    decide at random whether a reply meets the 40 ms stall.

    *twin*, when given, is the same script's direct session; the proxied
    greeting and every proxied op must match it byte for byte.
    """
    run.start_session()
    client = Client(port)
    steps = [("login_wrong", _login("owner") + b"-wrong")] if wrong_first else []
    steps += [("login", login)] + list(script) + [("logout", b"LOGOUT")]
    ops = [client.run(name, command) for name, command in steps]
    client.close()
    for i, (op, (name, command)) in enumerate(zip(ops, steps)):
        reason = expect.check(op, command, view)
        if reason is None and hidden is not None:
            reason = checks.leaks(op, command, *hidden)
        if reason is None and twin is not None:
            if op.blobs != twin.ops[i].blobs or client.greeting != twin.greeting:
                reason = f"{name}: owner bytes differ from the direct session"
        run.record(op, reason)
    headers = [op for op in ops if op.name == "headers"]
    if headers:
        run.sync_s.append((run.half, (run.group, run.session),
                           (headers[0].end - client.connect_start) / 1e9))


def play_direct(stack: Stack, script, expect: checks.Expect, view) -> Client:
    """The owner script straight against the stand-in (upstream login)."""
    client = Client(stack.upstream_port)
    login = f"LOGIN {mailgen.ACCOUNT} {mailgen.UPSTREAM_PASSWORD}".encode()
    steps = [("login", login)] + list(script) + [("logout", b"LOGOUT")]
    for name, command in steps:
        client.run(name, command)
    client.close()
    for op, (name, command) in zip(client.ops, steps):
        if expect.check(op, command, view) is not None:
            raise RuntimeError(f"direct session failed its own check at {name}")
    return client


# -- workloads ------------------------------------------------------------------------


def owner_mail(run: Run, stack: Stack, rng, deadline: float) -> None:
    expect = checks.Expect(stack.account, None)
    view = expect.view
    while run.more(deadline):
        run.group += 1
        script = mail_script(rng, view, stack.account.senders)
        twin = play_direct(stack, script, expect, view)
        run.direct.extend(twin.ops)
        play(run, stack.port, _login("owner"), script, expect, view, twin=twin)


class SubuserMail:
    def __init__(self, stack: Stack):
        self.expects = {name: checks.Expect(stack.account, policy)
                        for name, _, policy in mailgen.SUBUSERS}
        self.views = {name: e.view for name, e in self.expects.items()}
        self.hidden = {name: e.hidden() for name, e in self.expects.items()}
        self.sessions = 0

    def __call__(self, run: Run, stack: Stack, rng, deadline: float) -> None:
        # whole rotations only, so every sub-user's LOGIN cost weighs the same
        while run.more(deadline):
            run.group += 1
            for name, _, _ in mailgen.SUBUSERS:
                self.sessions += 1
                view = self.views[name]
                play(run, stack.port, _login(name), mail_script(rng, view, stack.account.senders),
                     self.expects[name], view, self.hidden[name],
                     wrong_first=self.sessions % WRONG_PASSWORD_EVERY == 0)


class Churn:
    """A sub-user session polls while the stand-in's INBOX changes."""

    def __init__(self, stack: Stack, mixed_order: bool = False):
        self.expect = checks.Expect(stack.account, mailgen.policy_of(CHURN_SUBUSER))
        self.mixed_order = mixed_order
        self.arrivals = mailgen.Arrivals(stack.seed)
        self.uidnext = stack.account.inbox.uidnext
        self.n = stack.n
        self.arrived: list[mailgen.Spec] = []

    def _mutate(self, stack: Stack, rng) -> None:
        # While the mailbox is above N, an expunge burst about every tenth
        # poll, before the interval's arrivals: the NOOP reports EXPUNGEs
        # then EXISTS. With *mixed_order* the seeded RNG puts half of the
        # bursts after the arrivals instead, so the NOOP reports EXISTS then
        # EXPUNGEs. Both are legal, and which one a server sends depends on
        # timing; the proxy ends the session on the second (see
        # README.md), so only the first is in BENCHMARK.json.
        burst = len(self.expect.inbox) > self.n and rng.random() < 0.1
        after = burst and self.mixed_order and rng.random() < 0.5
        if burst and not after:
            self._expunge(stack, rng)
        new = []
        for _ in range(rng.randint(1, 4)):
            new.append(self.arrivals.next(self.uidnext))
            self.uidnext += 1
        reply = stack.standin.request({
            "op": "inject", "mailbox": "INBOX",
            "raws": [base64.b64encode(mailgen.render(s)).decode() for s in new],
        })
        if reply["uids"] != [s.uid for s in new]:
            raise RuntimeError("stand-in assigned unexpected UIDs")
        self.expect.inbox.extend(new)
        self.arrived.extend(new)
        if after:
            self._expunge(stack, rng)

    def _expunge(self, stack: Stack, rng) -> None:
        """50-200 messages, capped so the mailbox stays within 5% of N."""
        inbox = self.expect.inbox
        room = len(inbox) - int(0.95 * self.n)
        if room < 50:
            return
        gone = rng.sample(inbox, min(rng.randint(50, 200), room))
        stack.standin.request({"op": "expunge", "mailbox": "INBOX", "uids": [s.uid for s in gone]})
        dropped = set(gone)
        inbox[:] = [s for s in inbox if s not in dropped]

    def _hidden(self) -> tuple[set[int], set[bytes]]:
        """Everything hidden from the sub-user so far, expunged or not:
        UIDs are never reused and canaries are unique."""
        uids, canaries = self.expect.hidden()
        gone = [s for s in self.arrived if not self.expect.shows(s)]
        return uids | {s.uid for s in gone}, canaries | {s.canary.encode() for s in gone}

    def __call__(self, run: Run, stack: Stack, rng, deadline: float) -> None:
        while run.more(deadline):
            run.group += 1
            self._session(run, stack, rng)

    def _session(self, run: Run, stack: Stack, rng) -> None:
        """Sync, POLLS_PER_SESSION polls, then open, search, download, STATUS
        and re-SELECT. If the proxy ends the session during a poll, that
        poll fails and the client reconnects and syncs, as a mail client
        does, then goes on with the remaining polls."""
        expect = self.expect
        run.start_session()
        client: Client | None = None
        done = []  # (op or None, command, view to check against, reason found inline)

        def step(name: str, command: bytes, view) -> None:
            done.append((client.run(name, command), command, view, None))

        def connect() -> list:
            nonlocal client
            client = Client(stack.port)
            view = expect.view
            step("login", _login(CHURN_SUBUSER), view)
            step("select", b"SELECT INBOX", view)
            step("flags_sync", b"UID FETCH 1:* (UID FLAGS)", view)
            step("headers", b"FETCH %d:%d (UID FLAGS RFC822.SIZE ENVELOPE)"
                 % (max(1, len(view) - HEADERS_PAGE + 1), len(view)), view)
            run.sync_s.append((run.half, (run.group, run.session),
                               (client.ops[-1].end - client.connect_start) / 1e9))
            return list(view)

        seen = connect()  # what the client believes the mailbox is
        for _ in range(POLLS_PER_SESSION):
            self._mutate(stack, rng)
            truth = expect.view
            try:
                op = client.run("poll", b"NOOP")
            except SessionLost as exc:
                done.append((None, b"NOOP", truth, str(exc)))
                client.close()
                seen = connect()
                continue
            reason = checks.follow(seen, op)
            known = len(seen) - seen.count(None)
            if reason is None and (len(seen) != len(truth) or seen[:known] != truth[:known]):
                reason = f"poll: client sees {len(seen)}, truth {len(truth)}"
            done.append((op, b"NOOP", truth, reason))
            seen = list(truth)
            if reason is None and known < len(truth):  # the newcomers' headers
                step("headers", b"FETCH %d:%d (UID FLAGS RFC822.SIZE ENVELOPE)"
                     % (known + 1, len(truth)), truth)
        step("body", b"UID FETCH %d BODY.PEEK[]" % seen[-1].uid, seen)
        step("search", b"UID SEARCH UNSEEN", seen)
        step("bulk", bulk_command(seen), seen)
        step("status", b"STATUS Archive (MESSAGES UNSEEN)", seen)
        step("reselect", b"SELECT INBOX", seen)
        step("logout", b"LOGOUT", seen)
        client.close()
        hidden = self._hidden()
        for op, command, view, reason in done:
            if reason is None:
                reason = expect.check(op, command, view) or checks.leaks(op, command, *hidden)
            run.record(op, reason)


WORKLOADS = {
    "owner-mail": lambda stack: owner_mail,
    "subuser-mail": SubuserMail,
    "subuser-churn": Churn,
}
# Runnable, but not in BENCHMARK.json: it fails its checks on a proxy that
# cannot take EXISTS then EXPUNGEs in one response.
EXTRA_WORKLOADS = {
    "subuser-churn-mixed": lambda stack: Churn(stack, mixed_order=True),
}


# -- metrics --------------------------------------------------------------------------


def _samples(run: Run, metric: str, half: int) -> list[tuple[tuple[int, int], float]]:
    """((group, session), value) of every sample of *metric* in *half*."""
    if metric == "sync_s":
        return [(key, s) for h, key, s in run.sync_s if h == half]
    ops = [(key, op) for h, key, op in run.ops if h == half]
    if metric == "bulk_mb_per_s":
        return [(key, op.body_bytes() / 1e6 / (op.ms / 1e3)) for key, op in ops if op.name == "bulk"]
    if metric == "bulk_first_byte_ms":
        return [(key, (op.first_byte - op.start) / 1e6) for key, op in ops if op.name == "bulk"]
    name = metric.rsplit("_", 1)[0]
    return [(key, op.ms) for key, op in ops if op.name == name]


def _values(run: Run, metric: str, half: int) -> list[float]:
    """The values whose median is reported: every sample, or with
    `per_rotation` one value per rotation, the mean over its sessions of
    each session's median. The four sub-users' costs differ in steps (2 to
    5 LOGIN derivations, hidden shares of 0.33 to 0.70), so a median over
    single sessions would fall in the gap between two sub-users; the median
    inside a session keeps one slow NOOP or search from moving the mean."""
    samples = _samples(run, metric, half)
    if not run.per_rotation:
        return [value for _, value in samples]
    sessions = defaultdict(list)
    for key, value in samples:
        sessions[key].append(value)
    rotations = defaultdict(list)
    for (group, _), values in sessions.items():
        rotations[group].append(statistics.median(values))
    return [statistics.fmean(values) for values in rotations.values()]


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
            break
    return out


def end_to_end(run: Run, half: int, setup: list[float], rss_mb: float) -> dict:
    """Each metric's summary; its "value" is what the result line reports:
    the median, except for `bulk_mb_per_s`, which is all bulk body bytes
    over all bulk download time. A download's time is bimodal: it meets the
    proxy's ~40 ms delayed-ACK stall or not, about half the time each, so
    the median of a dozen downloads flips between the two modes, while the
    total follows the share of stalled downloads."""
    table = {}
    for metric in END_TO_END:
        if metric == "setup_s":
            values = setup
        elif metric == "proxy_rss_mb":
            values = [rss_mb]
        else:
            values = _values(run, metric, half)
        if values:
            table[metric] = dict(summary(values), unit=END_TO_END[metric])
            table[metric]["value"] = table[metric]["median"]
    bulk = [op for h, _, op in run.ops if h == half and op.name == "bulk"]
    if bulk:
        seconds = sum(op.ms for op in bulk) / 1e3
        table["bulk_mb_per_s"]["value"] = sum(op.body_bytes() for op in bulk) / 1e6 / seconds
    return table


OPS = ("login", "select", "reselect", "flags_sync", "headers", "body", "search",
       "status", "poll", "bulk")


def _per_layer_units() -> dict[str, str]:
    """The per-layer metrics printed with --trace 1: the ones an optimisation
    of ROADMAP's open items should move (see README.md for the map)."""
    units = {
        "credstore.verify_credential.calls_per_login": "count",
        "credstore.verify_credential.self_ms.login": "ms",
        "credstore.verify_credential.p50_us": "us",
        "credstore.authenticate.self_ms.login": "ms",
        "store.open_sealed.self_ms.login": "ms",
        "policy.evaluations_per_select": "count",
        "policy.hidden_share": "ratio",
        "policy.body_fetch_share": "ratio",
        "policy.extract_meta.p50_us": "us",
        "policy.evaluate.p50_us": "us",
        "policy.evaluate.self_ms.select": "ms",
        "policy.sender_constraints_pass.self_ms.select": "ms",
        "imapcodec.parse_fetch_attrs.p50_us": "us",
        "imapcodec.parse_response.p50_us": "us",
        "imapcodec.parse_command.calls": "count",
        "imapcodec.parse_command.p50_us": "us",
        "imapcodec.SequenceSet.from_numbers.self_ms.flags_sync": "ms",
        "imapcodec.SequenceSet.render.self_ms.flags_sync": "ms",
        "viewmap.ViewMap.__init__.self_ms.select": "ms",
        "viewmap.ViewMap.map_up.self_ms.headers": "ms",
        "viewmap.ViewMap.map_up.self_ms.bulk": "ms",
        "viewmap.ViewMap.map_down_seq.p50_us": "us",
        "viewmap.ViewMap.visible_uids.calls": "count",
        "viewmap.ViewMap.filter_uids.self_ms.search": "ms",
        "viewmap.ViewMap.apply_upstream_expunge.calls": "count",
        "viewmap.ViewMap.apply_upstream_expunge.self_ms.poll": "ms",
        "viewmap.ViewMap.extend_on_new.calls": "count",
        "viewmap.ViewMap.extend_on_new.self_ms.poll": "ms",
        "proxy.UpstreamConnection.send_blob.p50_us": "us",
        "proxy.upstream_commands_per_client_command": "ratio",
        "proxy.upstream_bytes_per_client_byte": "ratio",
        "mockimap.max_command_line_bytes": "bytes",
        "trace.accounted_share.select": "ratio",
        "trace.accounted_share.flags_sync": "ratio",
    }
    for op in ("select", "reselect", "status", "poll"):
        units[f"policy.extract_meta.self_ms.{op}"] = "ms"
    for op in ("select", "flags_sync", "status"):
        units[f"imapcodec.parse_fetch_attrs.self_ms.{op}"] = "ms"
    for op in ("select", "flags_sync"):
        units[f"imapcodec.parse_response.self_ms.{op}"] = "ms"
    for op in ("flags_sync", "headers", "search"):
        units[f"viewmap.ViewMap.map_down_seq.self_ms.{op}"] = "ms"
    units["viewmap.ViewMap.visible_uids.self_ms.flags_sync"] = "ms"
    for op in ("select", "flags_sync", "body", "bulk", "poll"):
        units[f"proxy.UpstreamConnection.read_blob.self_ms.{op}"] = "ms"
    units["proxy.UpstreamConnection.send_blob.self_ms.poll"] = "ms"
    for op in ("flags_sync", "bulk"):
        units[f"proxy.ClientSession._send.self_ms.{op}"] = "ms"
    for op in ("select", "status", "poll"):
        units[f"proxy.upstream_commands_per_client_command.{op}"] = "ratio"
    for op in OPS:
        units[f"mockimap.service_ms.{op}"] = "ms"
        units[f"mockimap.direct_{op}_ms"] = "ms"
    for metric, unit in END_TO_END.items():
        if metric not in ("setup_s", "proxy_rss_mb"):
            units[f"trace_overhead.{metric}"] = unit
    return units


PER_LAYER = _per_layer_units()


def per_layer(run: Run, report: dict, untraced: dict, traced: dict) -> dict:
    """Every per-layer figure of the traced half: each traced function's
    calls, p50 and self time per client operation type, the stand-in's
    service time, the derived ratios and the tracing overhead."""
    ops = [(op.name, op.start, op.end) for h, _, op in run.ops if h == 1]
    joined = tracing.join(ops, report["spans"], report["standin_spans"])
    fns = joined["functions"]
    counts = joined["op_counts"]
    out: dict[str, float] = {}

    def per(fn: str, op: str) -> float:
        return fns[fn]["calls_by_op"].get(op, 0) / counts[op] if counts.get(op) else 0.0

    for fn in tracing.NAMES:
        out[f"{fn}.calls"] = fns[fn]["calls"]
        out[f"{fn}.p50_us"] = fns[fn]["p50_us"]
        for op in OPS:
            out[f"{fn}.self_ms.{op}"] = fns[fn]["self_ms"].get(op, 0.0)
    out["credstore.verify_credential.calls_per_login"] = per("credstore.verify_credential", "login")
    select_like = [op for op in ("select", "reselect") if counts.get(op)]
    decided = sum(fns["policy.sender_constraints_pass"]["calls_by_op"].get(op, 0) for op in select_like)
    n_select = sum(counts.get(op, 0) for op in select_like)
    out["policy.evaluations_per_select"] = decided / n_select if n_select else 0.0
    # every message the proxy decides gets exactly one sender check; the
    # ones that pass and need a body excerpt get a second extract_meta
    results = joined["results"]
    judged = fns["policy.sender_constraints_pass"]["calls"]
    hidden = (results.get("policy.sender_constraints_pass=False", 0)
              + results.get("policy.evaluate=Decision.HIDDEN", 0))
    out["policy.hidden_share"] = hidden / judged if judged else 0.0
    extra_meta = fns["policy.extract_meta"]["calls"] - judged
    out["policy.body_fetch_share"] = extra_meta / judged if judged else 0.0
    client_cmds = fns["imapcodec.parse_command"]["calls"]
    upstream_cmds = fns["proxy.UpstreamConnection.send_blob"]["calls"]
    out["proxy.upstream_commands_per_client_command"] = upstream_cmds / client_cmds if client_cmds else 0.0
    for op in ("select", "status", "poll"):
        out[f"proxy.upstream_commands_per_client_command.{op}"] = per("proxy.UpstreamConnection.send_blob", op)
    up_bytes = sum(fns["proxy.UpstreamConnection.read_blob"]["bytes_by_op"].values())
    down_bytes = sum(fns["proxy.ClientSession._send"]["bytes_by_op"].values())
    out["proxy.upstream_bytes_per_client_byte"] = up_bytes / down_bytes if down_bytes else 0.0
    mock = joined["mock"]
    out["mockimap.max_command_line_bytes"] = mock["max_command_line_bytes"]
    for op in OPS:
        out[f"mockimap.service_ms.{op}"] = mock["service_ms"].get(op, 0.0)
        times = [o.ms for o in run.direct if o.name == op]
        out[f"mockimap.direct_{op}_ms"] = statistics.median(times) if times else 0.0
    # the share of select and flag-sync time that the traced layers plus the
    # stand-in account for; read_blob is left out because its time is the
    # wait on the stand-in, which service_ms already counts
    for op in ("select", "flags_sync"):
        spent = joined["op_ms"].get(op)
        layers = sum(fns[f]["self_ms"].get(op, 0.0) for f in tracing.NAMES
                     if f != "proxy.UpstreamConnection.read_blob")
        share = (layers + mock["service_ms"].get(op, 0.0)) / spent if spent else 0.0
        out[f"trace.accounted_share.{op}"] = share
    for metric in END_TO_END:
        key = f"trace_overhead.{metric}"
        if key in PER_LAYER:
            both = metric in untraced and metric in traced
            out[key] = traced[metric]["value"] - untraced[metric]["value"] if both else 0.0
    return out


def environment() -> dict:
    """Commit (when the checkout is a git work tree of its own), machine
    and library versions, and the transport."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "transport": "loopback 127.0.0.1",
    }


# -- main -----------------------------------------------------------------------------


def standin_reply_ms(stack: Stack) -> float:
    """Median time of a direct multi-line reply (SELECT) from the stand-in.

    Must be far below the ~40 ms delayed-ACK stall, or the stand-in's
    TCP_NODELAY is not in effect and the proxy's own stall is hidden.
    """
    client = Client(stack.upstream_port)
    client.run("login", f"LOGIN {mailgen.ACCOUNT} {mailgen.UPSTREAM_PASSWORD}".encode())
    times = [client.run("select", b"SELECT INBOX").ms for _ in range(5)]
    client.run("logout", b"LOGOUT")
    client.close()
    return statistics.median(times)


def measure(args, run: Run, stack: Stack, workload, rng) -> None:
    """Drive *workload* for --seconds; with --trace, sessions switch
    between untraced and traced (see `Run`)."""
    reply_ms = standin_reply_ms(stack)
    if reply_ms >= STALL_MS / 4:
        raise RuntimeError(f"stand-in SELECT took {reply_ms:.1f} ms: its replies stall")
    if args.trace:
        if args.workload != "owner-mail":  # the stand-in's own floor on this mailbox
            expect = checks.Expect(stack.account, None)
            script = mail_script(rng, expect.view, stack.account.senders)
            run.direct.extend(play_direct(stack, script, expect, expect.view).ops)
        run.trace = lambda half: stack.proxy.request({"op": "trace", "on": bool(half)})
    workload(run, stack, rng, time.monotonic() + args.seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted({**WORKLOADS, **EXTRA_WORKLOADS}))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, help="mailbox size (default: the workload's)")
    args = parser.parse_args(argv)

    n = args.n or SIZES[args.workload]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setup: list[float] = []
    stack = None
    run = Run(per_rotation=args.workload == "subuser-mail")
    try:
        for _ in range(SETUP_REPEATS):
            if stack is not None:
                stack.stop()
            stack = Stack(args.seed, n, work)
            setup.append(stack.start())
        rng = random.Random(f"{args.seed}:{args.workload}:client")
        try:
            workload = {**WORKLOADS, **EXTRA_WORKLOADS}[args.workload]
            measure(args, run, stack, workload(stack), rng)
        except OSError as exc:  # a session the proxy dropped fails the run
            run.record(None, f"connection lost: {exc!r}")
        stack.stop()
        report = stack.report()
    finally:
        if stack is not None:
            stack.stop()
        shutil.rmtree(work, ignore_errors=True)
    rss_mb = report["max_rss_kb"] / 1024
    untraced = end_to_end(run, 0, setup, rss_mb)
    env = environment()
    env["inputs"] = mailgen.properties(stack.account)
    bulk = [op.body_bytes() for *_, op in run.ops if op.name == "bulk"]
    env["inputs"]["bulk_range_bytes"] = statistics.median(bulk) if bulk else 0
    if run.reasons:
        env["failures"] = run.reasons
    env["error_rate"] = run.failed / max(1, run.attempted)
    if args.trace:
        traced = end_to_end(run, 1, setup, rss_mb)
        layers = per_layer(run, report, untraced, traced)
        env["per_layer_all"] = layers
        env["end_to_end_traced"] = traced
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {m: s["value"] for m, s in untraced.items() if m in GATED}
        units = GATED
    env["end_to_end"] = untraced
    print(json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
