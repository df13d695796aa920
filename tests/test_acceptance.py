"""Acceptance gate: the eight guarantees this package ships with.

One test per criterion; each prints a single `[criterion N] ...: PASS|FAIL`
line (visible in the -rA summary) on top of the usual pytest verdict.
"""

import contextlib
import logging
import random
import re
import time

import pytest

from conftest import (
    ACCOUNT,
    FAST_KDF,
    FIXTURES,
    OWNER_PASSWORD,
    SPOUSE_PASSWORD,
    UPSTREAM_PASSWORD,
    ImapClient,
    make_household_store,
)
from reference_policy import reference_evaluate
from test_imapcodec import RECORDED_TRANSCRIPT, ScriptedIO
from wiregen import command_line, response_blob

from chamail import imapcodec
from chamail.credstore import CredStore, UpstreamSpec
from chamail.errors import AuthFailed, DecryptFailed, LiteralTooLarge, PasswordCollision
from chamail.mockimap import FixtureMailbox, MockIMAPServer, StoredMessage, load_fixture
from chamail.policy import (
    Decision,
    KeywordConstraint,
    KeywordMode,
    MessageMeta,
    PolicySet,
    SenderConstraint,
    SenderMode,
    UNPARSEABLE,
    evaluate,
    extract_meta,
)
from chamail.principal import Owner, SubUser
from chamail.proxy import ProxyConfig, ProxyServer
from chamail.store import open_sealed
from chamail.viewmap import ViewMap


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


# -- 1: the two-password scenario, end to end ------------------------------------------


def test_criterion_1_shared_mailbox_scenario(proxy6, connect):
    with criterion(1, "one mailbox, two passwords, two different inboxes"):
        start = time.monotonic()

        owner = connect()
        out = owner.cmd(b"a1 LOGIN person@gmail.com appleball\r\n")
        assert out[-1] == b"a1 OK LOGIN completed\r\n"
        out = owner.cmd(b"a2 SELECT INBOX\r\n")
        assert b"* 6 EXISTS\r\n" in out
        out = owner.cmd(b"a3 FETCH 1:* (UID)\r\n")
        assert [b for b in out if b.startswith(b"* ")] == [
            b"* %d FETCH (UID %d)\r\n" % (i, i * 10) for i in range(1, 7)
        ]
        out = owner.cmd(b"a4 SEARCH FROM ex@gmail.com\r\n")
        assert out[0] == b"* SEARCH 3 5\r\n"
        owner.cmd(b"a5 LOGOUT\r\n")
        owner.close()

        spouse = connect()
        out = spouse.cmd(b"b1 LOGIN person@gmail.com catsanddogs\r\n")
        assert out[-1] == b"b1 OK LOGIN completed\r\n"
        out = spouse.cmd(b"b2 SELECT INBOX\r\n")
        assert b"* 4 EXISTS\r\n" in out
        out = spouse.cmd(b"b3 FETCH 1:* (UID)\r\n")
        assert [b for b in out if b.startswith(b"* ")] == [
            b"* 1 FETCH (UID 10)\r\n",
            b"* 2 FETCH (UID 20)\r\n",
            b"* 3 FETCH (UID 40)\r\n",
            b"* 4 FETCH (UID 60)\r\n",
        ]
        out = spouse.cmd(b"b4 SEARCH FROM ex@gmail.com\r\n")
        assert out[0] == b"* SEARCH\r\n"
        spouse.cmd(b"b5 LOGOUT\r\n")

        assert time.monotonic() - start < 5.0


# -- 2: leak freedom over randomized mailboxes and policies -------------------------


LEAK_WORDS = ["meeting", "invoice", "garden", "travel", "photos", "recipe"]


def _random_instance(rng: random.Random, seed: int):
    n = rng.randint(4, 9)
    base_uid = 100000 + (seed % 80) * 1000 + rng.randint(0, 400)
    messages, senders, canaries, bodytoks, uids = [], [], [], [], []
    for i in range(n):
        sender = f"s{seed:03d}x{i:02d}@host{i:02d}.example"
        canary = f"CANARY{seed:03d}{i:02d}Q"
        bodytok = f"BODYTOK{seed:03d}{i:02d}Z"
        raw = (
            f"From: {sender}\r\n"
            f"To: {ACCOUNT}\r\n"
            f"Subject: {canary} {rng.choice(LEAK_WORDS)}\r\n"
            "MIME-Version: 1.0\r\n"
            "Content-Type: text/plain\r\n"
            "\r\n"
            f"{bodytok} {rng.choice(LEAK_WORDS)}\r\n"
        ).encode("ascii")
        uid = base_uid + i * 3
        flags = ("\\Seen",) if rng.random() < 0.5 else ()
        messages.append(StoredMessage(uid, flags, raw))
        senders.append(sender)
        canaries.append(canary)
        bodytoks.append(bodytok)
        uids.append(uid)
    mailbox = FixtureMailbox(
        "INBOX", messages, uidvalidity=1000000 + seed, uidnext=base_uid + n * 3 + 5
    )

    members = frozenset(rng.sample(senders, k=rng.randint(0, n)))
    keyword_constraints = ()
    if rng.random() < 0.5:
        pool = canaries + bodytoks + LEAK_WORDS
        keyword_constraints = (
            KeywordConstraint(
                rng.choice(list(KeywordMode)),
                frozenset(rng.sample(pool, k=rng.randint(1, 3))),
            ),
        )
    policy = PolicySet(
        sender_constraints=(SenderConstraint(rng.choice(list(SenderMode)), "screen"),),
        keyword_constraints=keyword_constraints,
    )
    lists = {"screen": members}
    hidden = [
        i
        for i in range(n)
        if reference_evaluate(policy, extract_meta(messages[i].raw), lists, SubUser("viewer"))
        is Decision.HIDDEN
    ]
    return mailbox, policy, members, hidden, senders, canaries, bodytoks, uids


def test_criterion_2_no_hidden_bytes_reach_a_subuser(tmp_path, master_key):
    with criterion(2, "hidden uid/sender/subject bytes never cross the wire"):
        for seed in range(100):
            rng = random.Random(987000 + seed)
            (
                mailbox,
                policy,
                members,
                hidden,
                senders,
                canaries,
                bodytoks,
                uids,
            ) = _random_instance(rng, seed)
            visible = mailbox.exists() - len(hidden)

            with MockIMAPServer([mailbox], {ACCOUNT: UPSTREAM_PASSWORD}) as mock:
                cs = CredStore(str(tmp_path / f"store{seed}.json"), kdf_params=FAST_KDF)
                cs.create_account(
                    ACCOUNT,
                    UpstreamSpec("127.0.0.1", mock.port, UPSTREAM_PASSWORD, ACCOUNT),
                    OWNER_PASSWORD,
                    master_key,
                )
                cs.manage_list(ACCOUNT, "create", "screen")
                for member in sorted(members):
                    cs.manage_list(ACCOUNT, "add-member", "screen", member)
                cs.add_subuser(ACCOUNT, "viewer", f"viewer-pw-{seed:04d}", policy)
                config = ProxyConfig(store_path=cs.path, listen_port=0)
                with ProxyServer(config, cs, master_key) as proxy:
                    client = ImapClient(proxy.port)
                    client.cmd(f"x1 LOGIN {ACCOUNT} viewer-pw-{seed:04d}\r\n".encode())
                    out = client.cmd(b"x2 SELECT INBOX\r\n")
                    assert b"* %d EXISTS\r\n" % visible in out
                    if visible:
                        client.cmd(
                            b"x3 FETCH 1:* (UID FLAGS ENVELOPE"
                            b" BODY.PEEK[HEADER.FIELDS (FROM SUBJECT)])\r\n"
                        )
                        client.cmd(b"x4 UID FETCH 1:* (BODY.PEEK[TEXT])\r\n")
                    out = client.cmd(b"x5 SEARCH ALL\r\n")
                    expected = "".join(f" {i}" for i in range(1, visible + 1))
                    assert out[0] == f"* SEARCH{expected}\r\n".encode()
                    client.cmd(b"x6 UID SEARCH ALL\r\n")
                    client.cmd(b"x7 STATUS INBOX (MESSAGES UNSEEN UIDNEXT)\r\n")
                    client.cmd(b"x8 NOOP\r\n")
                    client.cmd(b"x9 LOGOUT\r\n")
                    transcript = bytes(client.transcript)
                    client.close()

            for i in hidden:
                assert not re.search(rb"\b%d\b" % uids[i], transcript), (seed, i)
                assert senders[i].encode() not in transcript, (seed, i)
                assert canaries[i].encode() not in transcript, (seed, i)
                assert bodytoks[i].encode() not in transcript, (seed, i)


# -- 3: the policy engine against its executable spec --------------------------------


def test_criterion_3_policy_differential():
    with criterion(3, "evaluate() agrees with the naive reference on 1200 pairs"):
        rng = random.Random(0xC0FFEE)
        lists = {
            "a": frozenset({"x@x.example", "y@y.example"}),
            "b": frozenset({"z@z.example"}),
            "empty": frozenset(),
        }
        addr_pool = ["x@x.example", "y@y.example", "z@z.example", "w@w.example"]
        word_pool = ["tulip", "orchid", "lake", "invoice", "zzz", "q"]
        checked = 0
        for _ in range(1200):
            policy = PolicySet(
                sender_constraints=tuple(
                    SenderConstraint(rng.choice(list(SenderMode)), rng.choice(sorted(lists)))
                    for _ in range(rng.randint(0, 3))
                ),
                keyword_constraints=tuple(
                    KeywordConstraint(
                        rng.choice(list(KeywordMode)),
                        frozenset(rng.sample(word_pool, rng.randint(1, 3))),
                    )
                    for _ in range(rng.randint(0, 3))
                ),
            )
            meta = MessageMeta(
                sender=rng.choice(addr_pool + [UNPARSEABLE]),
                subject=" ".join(rng.sample(word_pool, rng.randint(0, 4))),
                body_excerpt=" ".join(rng.sample(word_pool, rng.randint(0, 4))),
            )
            principal = rng.choice([Owner(), SubUser("viewer")])
            assert evaluate(policy, meta, lists, principal) is reference_evaluate(
                policy, meta, lists, principal
            )
            checked += 1
        assert checked >= 1000


# -- 4: renumbering bookkeeping under random histories --------------------------------


def test_criterion_4_view_bookkeeping_brute_force():
    with criterion(4, "incremental view equals a rebuild across 500 histories"):
        rng = random.Random(41)
        V, H = Decision.VISIBLE, Decision.HIDDEN

        def rebuild(rows):
            return ViewMap(
                [(i + 1, uid, V if vis else H) for i, (uid, vis) in enumerate(rows)], 99
            )

        for _ in range(500):
            next_uid = rng.randint(1000, 5000)
            rows = []
            for _ in range(rng.randint(0, 30)):
                rows.append((next_uid, rng.random() < 0.6))
                next_uid += rng.randint(1, 9)
            view = rebuild(rows)
            for _ in range(rng.randint(1, 20)):
                if rows and rng.random() < 0.5:
                    seq = rng.randint(1, len(rows))
                    _, was_visible = rows[seq - 1]
                    expected = (
                        sum(1 for _, vis in rows[:seq] if vis) if was_visible else None
                    )
                    assert view.apply_upstream_expunge(seq) == expected
                    del rows[seq - 1]
                else:
                    batch = []
                    for _ in range(rng.randint(1, 3)):
                        visible = rng.random() < 0.6
                        rows.append((next_uid, visible))
                        batch.append((len(rows), next_uid, V if visible else H))
                        next_uid += rng.randint(1, 9)
                    view.extend_on_new(batch)
                assert view.entries() == rebuild(rows).entries()
                assert [v for v, _, _ in view.entries()] == list(
                    range(1, view.exists() + 1)
                )
                assert view.exists() + len(view.hidden_uids()) == view.upstream_exists()
                assert view.upstream_exists() == len(rows)


# -- 5: wire codec ---------------------------------------------------------------


def test_criterion_5_codec_corpus():
    with criterion(5, "codec round-trips 600 generated items and recorded lines"):
        rng = random.Random(1905)
        items = 0
        for i in range(300):
            line = command_line(rng, f"t{i}")
            cmd = imapcodec.parse_command(line, ScriptedIO())
            rendered = imapcodec.render_command(cmd)
            again = imapcodec.parse_command(rendered, ScriptedIO())
            assert (again.tag, again.verb, again.mailbox, again.login) == (
                cmd.tag,
                cmd.verb,
                cmd.mailbox,
                cmd.login,
            )
            assert (again.seq_set is None) == (cmd.seq_set is None)
            if cmd.seq_set is not None:
                assert again.seq_set.render() == cmd.seq_set.render()
            assert imapcodec.render_command(again) == rendered
            items += 1
        for _ in range(300):
            blob = response_blob(rng)
            resp = imapcodec.parse_response(blob)
            assert resp.raw == blob
            assert imapcodec.render_response(resp) == blob
            items += 1
        assert items >= 500

        for line in RECORDED_TRANSCRIPT:
            assert imapcodec.render_response(imapcodec.parse_response(line)) == line

        stub = ScriptedIO(b"x" * 32)
        with pytest.raises(LiteralTooLarge):
            imapcodec.parse_command(b"a1 LOGIN user {1048577}\r\n", stub)
        assert stub.literal_reads == [] and stub.continuations == 0


# -- 6: write isolation -------------------------------------------------------------


def test_criterion_6_write_isolation(spouse_session, mock6):
    with criterion(6, "sub-user mutations die at the proxy"):
        spouse_session.cmd(b"t2 SELECT INBOX\r\n")
        mock6.clear_log()
        body = b"From: evil@x.example\r\n\r\nnope\r\n"
        attempts = [
            b"w1 STORE 1 +FLAGS (\\Deleted)\r\n",
            b"w2 UID STORE 10 +FLAGS (\\Deleted)\r\n",
            b"w3 EXPUNGE\r\n",
            b"w4 APPEND INBOX (\\Seen) {%d+}\r\n" % len(body) + body + b"\r\n",
            b"w5 CREATE Evil\r\n",
            b"w6 XCUSTOMVERB arg\r\n",
        ]
        for line in attempts:
            tag = line.split(b" ", 1)[0]
            out = spouse_session.cmd(line)
            assert out == [tag + b" NO Permission denied\r\n"]
        assert mock6.received_verbs() == []
        assert mock6.mailboxes["INBOX"].exists() == 6
        assert not any(
            m.has_flag("\\Deleted") for m in mock6.mailboxes["INBOX"].messages
        )


# -- 7: credential scoping and sealing ----------------------------------------------


def test_criterion_7_credential_scoping(tmp_path, master_key, caplog):
    with criterion(7, "passwords resolve principals; secrets stay sealed"):
        caplog.set_level(logging.DEBUG, logger="chamail")
        path = tmp_path / "store.json"
        cs = CredStore(str(path), kdf_params=FAST_KDF)
        cs.create_account(
            ACCOUNT,
            UpstreamSpec("127.0.0.1", 143, UPSTREAM_PASSWORD, ACCOUNT),
            OWNER_PASSWORD,
            master_key,
        )
        cs.manage_list(ACCOUNT, "create", "exes")
        cs.manage_list(ACCOUNT, "add-member", "exes", "ex@gmail.com")
        cs.add_subuser(
            ACCOUNT,
            "spouse",
            SPOUSE_PASSWORD,
            PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "exes"),)),
        )

        assert isinstance(cs.authenticate(ACCOUNT, OWNER_PASSWORD), Owner)
        assert cs.authenticate(ACCOUNT, SPOUSE_PASSWORD) == SubUser("spouse")
        with pytest.raises(AuthFailed):
            cs.authenticate(ACCOUNT, "totally-wrong-password")

        with pytest.raises(PasswordCollision):
            cs.add_subuser(ACCOUNT, "kid", OWNER_PASSWORD)
        with pytest.raises(PasswordCollision):
            cs.add_subuser(ACCOUNT, "kid", SPOUSE_PASSWORD)

        blob = path.read_bytes()
        for secret in (OWNER_PASSWORD, SPOUSE_PASSWORD, UPSTREAM_PASSWORD):
            assert secret.encode() not in blob
            assert secret not in caplog.text

        sealed = cs.get_account(ACCOUNT).upstream.sealed_password
        assert open_sealed(sealed, master_key) == UPSTREAM_PASSWORD.encode()
        for bit in range(len(sealed) * 8):
            tampered = bytearray(sealed)
            tampered[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(DecryptFailed):
                open_sealed(bytes(tampered), master_key)


# -- 8: owner transparency ------------------------------------------------------------


def _drive(client: ImapClient, login_line: bytes, corpus: list[bytes]) -> bytes:
    client.cmd(login_line)
    for line in corpus:
        client.cmd(line)
    return bytes(client.transcript)


def _transparency_corpus() -> list[bytes]:
    corpus = [
        b"h1 SELECT INBOX\r\n",
        b"h2 FETCH 1:* (UID FLAGS)\r\n",
        b"h3 FETCH 3 (ENVELOPE BODY.PEEK[HEADER.FIELDS (FROM SUBJECT)])\r\n",
        b"h4 UID FETCH 30:50 (FLAGS)\r\n",
        b"h5 SEARCH FROM ex@gmail.com\r\n",
        b"h6 UID SEARCH UNSEEN\r\n",
        b"h7 STORE 2 +FLAGS (\\Flagged)\r\n",
        b"h8 STATUS INBOX (MESSAGES UNSEEN UIDNEXT UIDVALIDITY)\r\n",
        b'h9 LIST "" *\r\n',
        b"h10 NOOP\r\n",
        b"h11 SELECT Missing\r\n",
        b"h12 CAPABILITY\r\n",
        b"h13 EXAMINE INBOX\r\n",
        b"h14 FETCH 1 (BODY[TEXT])\r\n",
        b"h15 CLOSE\r\n",
    ]
    rng = random.Random(8808)
    for i in range(150):
        line = command_line(rng, f"g{i}")
        if line.split()[1].upper() == b"LOGOUT":
            line = f"g{i} NOOP\r\n".encode()
        corpus.append(line)
    corpus.append(b"zz LOGOUT\r\n")
    return corpus


def test_criterion_8_owner_transparency(tmp_path, master_key):
    with criterion(8, "owner transcript is byte-identical to a direct session"):
        corpus = _transparency_corpus()

        with MockIMAPServer(
            [load_fixture(FIXTURES / "inbox6")], {ACCOUNT: UPSTREAM_PASSWORD}
        ) as direct_mock:
            client = ImapClient(direct_mock.port)
            direct = _drive(
                client, f"t0 LOGIN {ACCOUNT} {UPSTREAM_PASSWORD}\r\n".encode(), corpus
            )
            client.close()

        with MockIMAPServer(
            [load_fixture(FIXTURES / "inbox6")], {ACCOUNT: UPSTREAM_PASSWORD}
        ) as proxied_mock:
            cs = make_household_store(tmp_path / "store.json", proxied_mock.port, master_key)
            config = ProxyConfig(store_path=cs.path, listen_port=0)
            with ProxyServer(config, cs, master_key) as proxy:
                client = ImapClient(proxy.port)
                proxied = _drive(
                    client, f"t0 LOGIN {ACCOUNT} {OWNER_PASSWORD}\r\n".encode(), corpus
                )
                client.close()

        assert b"t0 OK LOGIN completed\r\n" in direct  # the corpus really logged in
        assert proxied == direct
