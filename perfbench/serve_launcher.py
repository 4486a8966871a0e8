"""Start ``repro serve`` with the ledger's wrappers installed.

Used only by traced ``serve`` runs::

    python3 perfbench/serve_launcher.py --spans OUT.json --port 0 --http-port 0

It prints the same ready line as ``repro serve``, runs
:func:`repro.obs.serve.run_server` until a ``shutdown`` op, then writes
the server's spans, call counts and registry counter movement (from
ready to shutdown) to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ledger import Instrumentation, Ledger, counter_deltas  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--http-port", type=int, default=0)
    args = parser.parse_args()

    from repro.obs import metrics as obs_metrics
    from repro.obs import serve

    ledger = Ledger(run_id="serve-server")
    instrumentation = Instrumentation(ledger).install()
    before: dict = {}

    def ready(ports: dict) -> None:
        before.update(obs_metrics.registry().snapshot())
        print(
            f"serving sessions on {args.host}:{ports['port']}  "
            f"metrics on http://{args.host}:{ports['http_port']}/metrics",
            flush=True,
        )

    try:
        serve.run_server(
            host=args.host, port=args.port, http_port=args.http_port,
            ready=ready,
        )
    finally:
        instrumentation.remove()
    payload = ledger.to_payload()
    payload["counters"] = counter_deltas(
        before, obs_metrics.registry().snapshot()
    )
    Path(args.spans).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
