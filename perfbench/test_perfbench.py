"""The benchmark's own tests: python3 -m pytest perfbench/test_perfbench.py

A small-N smoke run of every workload passes, the generator is
deterministic, and each output check fails when a fault is planted.
"""

import base64
import json
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import mailgen  # noqa: E402
import run  # noqa: E402
import standin  # noqa: E402
from client import Client, Op  # noqa: E402
from chamail.policy import Decision, evaluate, extract_meta  # noqa: E402
from chamail.principal import SubUser  # noqa: E402

SMALL_N = 200


def test_same_seed_gives_the_same_mailbox():
    a, b = mailgen.generate(7, SMALL_N), mailgen.generate(7, SMALL_N)
    assert a == b
    assert [mailgen.render(s) for s in a.inbox.specs] == [mailgen.render(s) for s in b.inbox.specs]
    assert mailgen.generate(8, SMALL_N) != a


def test_ground_truth_agrees_with_the_policy_engine():
    account = mailgen.generate(5, SMALL_N)
    lists = {"exes": account.exes, "work": account.work}
    for name, _, text in mailgen.SUBUSERS:
        policy = run._policy(text)
        for spec in account.inbox.specs:
            meta = extract_meta(mailgen.render(spec))
            want = Decision.VISIBLE if mailgen.visible(text, spec, account) else Decision.HIDDEN
            assert evaluate(policy, meta, lists, SubUser(name)) is want, (name, spec.uid)


@pytest.mark.parametrize(
    "workload,trace",
    [("owner-mail", 0), ("subuser-mail", 0), ("subuser-churn", 0), ("subuser-churn", 1)],
)
def test_small_smoke_run_passes(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--n", str(SMALL_N)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.GATED)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.GATED
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


# -- planted faults, on a live stack -------------------------------------------------------


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    live = run.Stack(3, SMALL_N, tmp_path_factory.mktemp("stack"))
    live.start()
    yield live
    live.stop()


def _session(stack, name, script, view=None, hidden=None, twin=None):
    expect = checks.Expect(stack.account, None if name == "owner" else mailgen.policy_of(name))
    result = run.Run()
    run.play(result, stack.port, run._login(name), script, expect,
             expect.view if view is None else view, hidden, twin=twin)
    return result


def test_standin_multiline_reply_does_not_stall(stack):
    assert run.standin_reply_ms(stack) < run.STALL_MS / 4


def test_wrong_expected_count_fails(stack):
    view = checks.Expect(stack.account, mailgen.policy_of("s1")).view
    assert _session(stack, "s1", [("select", b"SELECT INBOX")], view).failed == 0
    planted = _session(stack, "s1", [("select", b"SELECT INBOX")], view[:-1])
    assert planted.failed == 1 and "EXISTS" in planted.reasons[0]


def test_leaked_canary_fails(stack):
    expect = checks.Expect(stack.account, mailgen.policy_of("s1"))
    view = expect.view
    script = [("select", b"SELECT INBOX"),
              ("headers", b"FETCH %d:%d (UID FLAGS ENVELOPE)" % (len(view) - 4, len(view)))]
    uids, canaries = expect.hidden()
    assert _session(stack, "s1", script, hidden=(uids, canaries)).failed == 0
    # pretend the newest visible message were hidden: its canary now leaks
    planted = _session(stack, "s1", script, hidden=(uids, canaries | {view[-1].canary.encode()}))
    assert planted.failed == 1 and "canary" in planted.reasons[0]


def test_leaked_uid_fails(stack):
    expect = checks.Expect(stack.account, mailgen.policy_of("s1"))
    uids, canaries = expect.hidden()
    script = [("select", b"SELECT INBOX"), ("flags_sync", b"UID FETCH 1:* (UID FLAGS)")]
    planted = _session(stack, "s1", script, hidden=(uids | {expect.view[0].uid}, canaries))
    assert planted.failed == 1 and "uid" in planted.reasons[0]


def test_modified_owner_byte_fails(stack):
    expect = checks.Expect(stack.account, None)
    script = run.mail_script(random.Random(1), expect.view, stack.account.senders)[:3]
    twin = run.play_direct(stack, script, expect, expect.view)
    assert _session(stack, "owner", script, twin=twin).failed == 0
    blob = twin.ops[2].blobs[0]
    twin.ops[2].blobs[0] = blob[:-3] + bytes([blob[-3] ^ 1]) + blob[-2:]
    planted = _session(stack, "owner", script, twin=twin)
    assert planted.failed == 1 and "differ" in planted.reasons[0]


def test_wrong_password_must_get_no(stack):
    result = run.Run()
    expect = checks.Expect(stack.account, mailgen.policy_of("s2"))
    run.play(result, stack.port, run._login("s2"), [], expect, expect.view, wrong_first=True)
    assert result.failed == 0
    refused = next(op for *_, op in result.ops if op.name == "login_wrong")
    assert expect.check(refused, b"", expect.view) is None
    accepted = next(op for *_, op in result.ops if op.name == "login")
    accepted.name = "login_wrong"  # an OK where NO is expected is a failure
    assert expect.check(accepted, b"", expect.view) is not None


# -- churn: event order and the client's mailbox model ------------------------------------


def _poll(*lines: bytes) -> Op:
    return Op("poll", 0, 0, 0, [*lines, b"c1 OK NOOP completed\r\n"])


def test_mailbox_model_follows_events_in_order():
    seen = ["a", "b", "c"]
    poll = _poll(b"* 5 EXISTS\r\n", b"* 1 EXPUNGE\r\n", b"* 4 EXPUNGE\r\n")
    assert checks.follow(seen, poll) is None
    assert seen == ["b", "c", None]
    seen = ["a", "b", "c"]
    assert checks.follow(seen, _poll(b"* 2 EXPUNGE\r\n", b"* 3 EXISTS\r\n")) is None
    assert seen == ["a", "c", None]


@pytest.mark.parametrize("lines", [
    (b"* 2 EXISTS\r\n",),  # shrinks without an EXPUNGE
    (b"* 4 EXPUNGE\r\n",),  # beyond the mailbox
    (b"* 3 EXPUNGE\r\n", b"* 3 EXPUNGE\r\n", b"* 3 EXPUNGE\r\n"),
])
def test_mailbox_model_rejects_impossible_events(lines):
    assert checks.follow(["a", "b", "c"], _poll(*lines)) is not None


class _RecordingStandin:
    """Answers the churn workload's inject and expunge requests, and logs
    their order."""

    def __init__(self, uidnext: int):
        self.uidnext = uidnext
        self.log: list[str] = []

    def request(self, obj: dict) -> dict:
        self.log.append(obj["op"])
        if obj["op"] != "inject":
            return {}
        uids = list(range(self.uidnext, self.uidnext + len(obj["raws"])))
        self.uidnext += len(uids)
        return {"uids": uids}


@pytest.mark.parametrize("mixed", [False, True])
def test_churn_puts_bursts_before_arrivals_unless_mixed(mixed):
    account = mailgen.generate(3, SMALL_N)
    standin_ = _RecordingStandin(account.inbox.uidnext)
    stack = types.SimpleNamespace(account=account, seed=3, n=SMALL_N, standin=standin_)
    churn = run.Churn(stack, mixed_order=mixed)
    rng = random.Random(0)
    orders = []
    for _ in range(400):
        standin_.log.clear()
        churn._mutate(stack, rng)
        orders.append(tuple(standin_.log))
    assert ("expunge", "inject") in orders
    assert (("inject", "expunge") in orders) is mixed


def test_standin_reports_events_in_the_order_they_happened():
    account = mailgen.generate(4, 20)
    server = standin.StandIn(standin.build_mailboxes(account),
                             {mailgen.ACCOUNT: mailgen.UPSTREAM_PASSWORD}).start()
    try:
        client = Client(server.port)
        client.run("login", f"LOGIN {mailgen.ACCOUNT} {mailgen.UPSTREAM_PASSWORD}".encode())
        client.run("select", b"SELECT INBOX")
        raw = mailgen.render(mailgen.Arrivals(4).next(account.inbox.uidnext))
        server.inject_new_message("INBOX", raw)
        server.inject_expunge("INBOX", account.inbox.specs[0].uid)
        server.inject_new_message("INBOX", raw)
        op = client.run("poll", b"NOOP")
        client.close()
    finally:
        server.stop()
    assert op.blobs[:-1] == [b"* 21 EXISTS\r\n", b"* 1 EXPUNGE\r\n", b"* 21 EXISTS\r\n"]


@pytest.mark.xfail(strict=True, raises=ConnectionError, reason=(
    "the proxy aborts a sub-user session when one upstream response holds EXISTS "
    "then EXPUNGEs: the pending EXISTS is not lowered by the expunges and the "
    "metadata fetch asks for sequence numbers that no longer exist"))
def test_subuser_poll_survives_exists_then_expunge(tmp_path):
    live = run.Stack(4, SMALL_N, tmp_path)
    live.start()
    try:
        expect = checks.Expect(live.account, mailgen.policy_of("s1"))
        client = Client(live.port)
        client.run("login", run._login("s1"))
        client.run("select", b"SELECT INBOX")
        new = mailgen.Arrivals(4).next(live.account.inbox.uidnext)
        live.standin.request({"op": "inject", "mailbox": "INBOX",
                              "raws": [base64.b64encode(mailgen.render(new)).decode()]})
        gone = expect.view[:2]
        live.standin.request({"op": "expunge", "mailbox": "INBOX", "uids": [s.uid for s in gone]})
        seen = list(expect.view)
        op = client.run("poll", b"NOOP")
        client.close()
    finally:
        live.stop()
    expect.inbox = [s for s in expect.inbox if s not in gone] + [new]
    assert checks.follow(seen, op) is None
    assert len(seen) == len(expect.view)


def test_subuser_mail_reports_the_median_of_rotation_means():
    result = run.Run(per_rotation=True)
    rotations = [[(1, 2, 30), (3,), (4,), (10,)], [(2,), (2,), (2,), (2,)], [(5,)] * 4]
    for group, sessions in enumerate(rotations):
        result.group = group
        for values in sessions:
            result.session += 1
            for ms in values:
                result.record(Op("select", 0, int(ms * 1e6), 0, []), None)
    # session medians 2, 3, 4, 10 -> 4.75; then 2; then 5
    assert sorted(run._values(result, "select_ms", 0)) == [2.0, 4.75, 5.0]
    result.per_rotation = False
    assert len(run._values(result, "select_ms", 0)) == 14
