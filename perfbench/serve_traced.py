"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py --ledger-dir DIR --spans FILE``.
Binds an ephemeral port on 127.0.0.1 and prints the same
``repro serve listening on http://HOST:PORT`` line as the CLI.  The
wrappers are installed before the service starts; ``/stats`` gains a
``perfbench`` section with the tracer's running totals, and the spans
are written to ``FILE`` once SIGTERM has drained the server.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    from perfbench.tracer import LAYER_TARGETS, Tracer
    from repro.serve.config import ServeConfig
    from repro.serve.server import ServeRuntime
    from repro.serve.service import SynthesisService
    from repro.stats.kernels import kernel_pass_count

    tracer = Tracer()
    tracer.install(LAYER_TARGETS)
    plain_stats = SynthesisService.stats

    def stats(service):
        body = plain_stats(service)
        snapshot = tracer.snapshot()
        snapshot["counts"]["stats.kernels.passes"] = kernel_pass_count()
        body["perfbench"] = snapshot
        return body

    SynthesisService.stats = stats
    try:
        runtime = ServeRuntime(ServeConfig.resolve(port=0, ledger_dir=args.ledger_dir))
        print(f"repro serve listening on {runtime.base_url}", flush=True)
        runtime.run()
    finally:
        SynthesisService.stats = plain_stats
        tracer.uninstall()
        tracer.write_spans(args.spans)


if __name__ == "__main__":
    main()
