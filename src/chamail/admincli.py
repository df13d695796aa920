"""Operator CLI: accounts, sub-users, address lists, policies, dry-runs.

Grammar: `chamail <noun> <verb> [args] [--store PATH] [--json]`.

Secrets are never taken on argv — they come from a prompt or, with
--password-stdin, from stdin lines. Mutating commands take an exclusive
flock on `<store>.lock` so concurrent admin invocations serialize.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import getpass
import json
import logging
import mailbox
import os
import sys

from . import store
from .credstore import CredStore, UpstreamSpec
from .errors import ChamailError
from .policy import (
    BODY_EXCERPT_CAP,
    KeywordConstraint,
    KeywordMode,
    PolicySet,
    SenderConstraint,
    SenderMode,
    UNPARSEABLE,
)
from .principal import Owner, SubUser

DEFAULT_STORE = "chamail-store.json"


def _store_path(args) -> str:
    return args.store or os.environ.get("CHAMAIL_STORE", DEFAULT_STORE)


@contextlib.contextmanager
def _store_lock(path: str):
    lock_path = path + ".lock"
    with open(lock_path, "w") as lock_file:
        fcntl.flock(lock_file, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_file, fcntl.LOCK_UN)


def _read_secret(prompt: str, from_stdin: bool) -> str:
    if from_stdin:
        line = sys.stdin.readline()
        if not line:
            raise ChamailError(f"expected {prompt} on stdin")
        return line.rstrip("\n")
    return getpass.getpass(f"{prompt}: ")


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


# -- subcommand handlers -------------------------------------------------------


def _cmd_account_create(args) -> int:
    owner_password = _read_secret("owner password", args.password_stdin)
    upstream_password = _read_secret("upstream password", args.password_stdin)
    master_key = store.master_key_from_env()
    path = _store_path(args)
    upstream = UpstreamSpec(
        host=args.upstream_host,
        port=args.upstream_port,
        password=upstream_password,
        upstream_login=args.upstream_login or args.email,
        use_tls=args.upstream_tls,
    )
    with _store_lock(path):
        cred_store = CredStore(path)
        account = cred_store.create_account(args.email, upstream, owner_password, master_key)
    _emit(args, f"created account {account.email}", {"account": account.email})
    return 0


def _cmd_subuser_add(args) -> int:
    password = _read_secret(f"password for sub-user {args.name}", args.password_stdin)
    path = _store_path(args)
    with _store_lock(path):
        cred_store = CredStore(path)
        cred_store.add_subuser(args.email, args.name, password)
    _emit(
        args,
        f"added sub-user {args.name} to {args.email}",
        {"account": args.email, "subuser": args.name},
    )
    return 0


def _cmd_list(args) -> int:
    path = _store_path(args)
    action = {
        "create": "create",
        "delete": "delete",
        "add": "add-member",
        "remove": "remove-member",
    }[args.verb]
    with _store_lock(path):
        cred_store = CredStore(path)
        cred_store.manage_list(args.email, action, args.name, args.address)
    messages = {
        "create": f"created list {args.name}",
        "delete": f"deleted list {args.name}",
        "add": f"added {args.address} to {args.name}",
        "remove": f"removed {args.address} from {args.name}",
    }
    _emit(
        args,
        messages[args.verb],
        {"account": args.email, "list": args.name, "action": args.verb},
    )
    return 0


def _parse_sender_rule(text: str) -> SenderConstraint:
    mode_text, sep, list_name = text.partition(":")
    if not sep or not list_name:
        raise ChamailError(f"sender rule must be MODE:LIST, got {text!r}")
    try:
        mode = SenderMode[mode_text.upper()]
    except KeyError:
        raise ChamailError(f"unknown sender mode {mode_text!r}") from None
    return SenderConstraint(mode, list_name)


def _parse_keyword_rule(text: str) -> KeywordConstraint:
    mode_text, sep, keywords = text.partition(":")
    if not sep or not keywords:
        raise ChamailError(f"keyword rule must be MODE:KW1,KW2,..., got {text!r}")
    mode_map = {"require": KeywordMode.REQUIRE_ANY, "forbid": KeywordMode.FORBID_ANY}
    mode = mode_map.get(mode_text.lower())
    if mode is None:
        raise ChamailError(f"unknown keyword mode {mode_text!r}")
    return KeywordConstraint(mode, frozenset(k for k in keywords.split(",") if k))


def _cmd_rule_set(args) -> int:
    policy = PolicySet(
        sender_constraints=tuple(_parse_sender_rule(r) for r in args.senders or ()),
        keyword_constraints=tuple(_parse_keyword_rule(r) for r in args.keywords or ()),
    )
    path = _store_path(args)
    with _store_lock(path):
        cred_store = CredStore(path)
        cred_store.set_policy(args.email, args.name, policy)
    _emit(
        args,
        f"policy set for {args.name}",
        {"account": args.email, "subuser": args.name, "policy": policy.to_json()},
    )
    return 0


def _cmd_dryrun(args) -> int:
    from .proxy import decide

    path = _store_path(args)
    cred_store = CredStore(path)
    account = cred_store.get_account(args.email)
    if args.owner:
        principal = Owner()
        policy = PolicySet.empty()
    else:
        principal = SubUser(args.subuser)
        policy = account.subuser(args.subuser).policy
    lists = account.list_members()

    try:
        box = mailbox.mbox(args.mbox, create=False)
    except (mailbox.Error, OSError) as exc:
        raise ChamailError(f"cannot read mbox {args.mbox}: {exc}") from exc

    rows = []
    visible = hidden = 0
    try:
        for index, key in enumerate(box.iterkeys(), start=1):
            # Decide on what the proxy reads from an IMAP server: CRLF line
            # ends, the header block and the first BODY_EXCERPT_CAP body bytes.
            raw = box.get_bytes(key).replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
            header, blank, body = raw.partition(b"\r\n\r\n")
            decision, meta = decide(
                policy, lists, principal, header + blank, body[:BODY_EXCERPT_CAP]
            )
            sender = "<unparseable>" if meta.sender is UNPARSEABLE else meta.sender
            rows.append({"index": index, "sender": sender, "decision": decision.name})
            if decision.name == "VISIBLE":
                visible += 1
            else:
                hidden += 1
    finally:
        box.close()

    if args.json:
        print(
            json.dumps(
                {"messages": rows, "visible": visible, "hidden": hidden},
                sort_keys=True,
            )
        )
    else:
        for row in rows:
            print(f"{row['index']:>4}  {row['sender']}  {row['decision']}")
        print(f"{visible} visible, {hidden} hidden of {visible + hidden}")
    return 0


def _cmd_serve(args) -> int:
    from .proxy import ProxyServer, load_config

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    config = load_config(args.config)
    master_key = store.master_key_from_env()
    cred_store = CredStore(config.store_path)
    server = ProxyServer(config, cred_store, master_key)
    print(f"chamail proxy listening on {server.host}:{server.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


# -- argument wiring --------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", help=f"store file (default: ${{CHAMAIL_STORE}} or {DEFAULT_STORE})")
    parser.add_argument("--json", action="store_true", help="emit machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chamail",
        description="credential-scoped IMAP proxy: one mailbox, many passwords",
    )
    nouns = parser.add_subparsers(dest="noun", required=True)

    account = nouns.add_parser("account", help="account lifecycle").add_subparsers(
        dest="verb", required=True
    )
    create = account.add_parser("create", help="register an account and seal its upstream credential")
    create.add_argument("email")
    create.add_argument("--upstream-host", required=True)
    create.add_argument("--upstream-port", type=int, required=True)
    create.add_argument("--upstream-login", help="upstream login name (default: the email)")
    create.add_argument("--upstream-tls", action="store_true")
    create.add_argument(
        "--password-stdin",
        action="store_true",
        help="read owner password then upstream password, one per stdin line",
    )
    _add_common(create)
    create.set_defaults(func=_cmd_account_create)

    subuser = nouns.add_parser("subuser", help="sub-user management").add_subparsers(
        dest="verb", required=True
    )
    add = subuser.add_parser("add", help="add a sub-user credential")
    add.add_argument("email")
    add.add_argument("name")
    add.add_argument(
        "--password-stdin", action="store_true", help="read the password from one stdin line"
    )
    _add_common(add)
    add.set_defaults(func=_cmd_subuser_add)

    lists = nouns.add_parser("list", help="named address lists").add_subparsers(
        dest="verb", required=True
    )
    for verb, with_addr in (("create", False), ("delete", False), ("add", True), ("remove", True)):
        sub = lists.add_parser(verb)
        sub.add_argument("email")
        sub.add_argument("name")
        if with_addr:
            sub.add_argument("address")
        else:
            sub.set_defaults(address=None)
        _add_common(sub)
        sub.set_defaults(func=_cmd_list)

    rule = nouns.add_parser("rule", help="visibility policies").add_subparsers(
        dest="verb", required=True
    )
    rule_set = rule.add_parser("set", help="replace a sub-user's policy")
    rule_set.add_argument("email")
    rule_set.add_argument("name")
    rule_set.add_argument(
        "--senders",
        action="append",
        metavar="MODE:LIST",
        help="blacklist:LIST or whitelist:LIST (repeatable)",
    )
    rule_set.add_argument(
        "--keywords",
        action="append",
        metavar="MODE:KW1,KW2",
        help="require:KW1,KW2 or forbid:KW1,KW2 (repeatable)",
    )
    _add_common(rule_set)
    rule_set.set_defaults(func=_cmd_rule_set)

    dryrun = nouns.add_parser(
        "dryrun", help="evaluate a policy offline against an mbox file"
    )
    dryrun.add_argument("email")
    dryrun.add_argument("mbox")
    who = dryrun.add_mutually_exclusive_group(required=True)
    who.add_argument("--subuser", help="evaluate as this sub-user")
    who.add_argument("--owner", action="store_true", help="evaluate as the owner")
    _add_common(dryrun)
    dryrun.set_defaults(func=_cmd_dryrun)

    serve = nouns.add_parser("serve", help="run the proxy")
    serve.add_argument("--config", required=True, help="path to the JSON config file")
    serve.set_defaults(func=_cmd_serve, store=None, json=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChamailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
