"""Proxy launcher: runs `chamail.proxy.ProxyServer` in its own process.

Usage: proxy_main.py --store STORE --upstream-port PORT --out OUT.json

Prints `{"port": P}` once listening. Reads JSON lines on stdin:
`{"op": "trace", "on": true}` installs the span wrappers of `tracing.py`
and `"on": false` removes them. It is sent between sessions, so no session
is half traced. Closing stdin stops the
server; the launcher then writes its peak RSS and any spans to OUT.json
and exits. The master key comes from CHAMAIL_MASTER_KEY, as for
`chamail serve`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from chamail.credstore import CredStore
from chamail.proxy import ProxyConfig, ProxyServer, UpstreamOverride
from chamail.store import master_key_from_env

import mailgen
from tracing import Recorder


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--upstream-port", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    config = ProxyConfig(
        store_path=args.store,
        listen_port=0,
        upstream_overrides={
            mailgen.ACCOUNT: UpstreamOverride("127.0.0.1", args.upstream_port)
        },
    )
    recorder = None
    server = ProxyServer(config, CredStore(args.store), master_key_from_env()).start()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        for line in sys.stdin:
            request = json.loads(line)
            if request["op"] == "trace":
                if recorder is None:
                    recorder = Recorder()
                recorder.install(request["on"])
            print(json.dumps({"ok": True}), flush=True)
    finally:
        server.stop()
    result = {"max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        result["spans"] = args.out + ".spans"
        result["results"] = recorder.dump(result["spans"])
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
