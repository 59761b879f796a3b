"""The process that hosts the engine for ``served_browse``.

Generates and loads the dataset, starts ``JackpineServer`` on an
ephemeral port and prints one JSON line with the port and its set-up
phases, timed and scaled here. Then answers line commands on stdin:
``usage`` prints CPU time and peak RSS; ``stop`` (or end of input, so a
dead parent never leaves it behind) stops the server and exits.
"""

import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "..", "src"))
sys.path.insert(0, os.path.join(_HERE, ".."))

from harness import DATA_SEED, Phases, Reference, load_database  # noqa: E402


def usage():
    return {
        "cpu_s": time.process_time(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main():
    scale = float(sys.argv[1])
    phases = Phases(Reference())
    generate, JackpineServer, ServerConfig = phases.run(
        "import", import_program
    )
    dataset = phases.run("generate", generate, DATA_SEED, scale)
    database = phases.run("load", load_database, dataset, "greenwood")
    # a generous deadline and queue: this workload measures latency of
    # served requests, and must never shed one because the host stalled
    config = ServerConfig(
        port=0, pool_size=2, cache_capacity=256, deadline=30.0, max_queue=64
    )
    server = phases.run("listen", JackpineServer(database, config).start)
    try:
        print(json.dumps({
            "port": server.port, "rows": dataset.total_rows(),
            "raw": phases.raw, "scaled": phases.scaled,
        }), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "usage":
                print(json.dumps(usage()), flush=True)
            elif command == "stop":
                break
    finally:
        server.stop()
    print(json.dumps(usage()), flush=True)


def import_program():
    import repro.engines  # noqa: F401 (timed here, used by load_database)
    from repro.datagen import generate
    from repro.service import JackpineServer, ServerConfig

    return generate, JackpineServer, ServerConfig


if __name__ == "__main__":
    main()
