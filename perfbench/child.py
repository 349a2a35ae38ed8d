"""One benchmark pass in a fresh interpreter.

run.py starts this as

  python3 -S perfbench/child.py MEASURE CAPACITY DAMPING SEED \\
      [WORKLOAD STREAM READER TRACE SPANS]

It first imports rps from this checkout's src/ and builds the Catalog and
the ReservoirSampler, timing that on the process CPU clock before anything
else is imported, so setup_s covers a cold import, and then divides it by the
machine's slowdown (passes.slowdown) measured right after.  With only the
first four arguments it stops there and prints setup_s; otherwise it loads the pickled
(reader sampler, probes) from READER, runs passes.run_pass over the STREAM
file (one instance per line), and prints the result as one JSON line.  SPANS
is a path for the traced pass's spans, or "-" for none.
"""

import os
import sys
import time

# reference units timed after the set-up, about 10 ms
SETUP_UNITS = 20
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_rps():
    """Import rps (with rps.formats) from this checkout's src/, nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rps
    import rps.formats

    where = os.path.realpath(rps.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"rps was imported from {where}, not from {SRC}")
    return rps


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def main(argv: list[str]) -> int:
    cpu0 = time.process_time()
    rps = import_rps()
    measure, capacity, damping, seed = argv[:4]
    catalog = rps.Catalog()
    sampler = rps.ReservoirSampler(
        rps.parse_measure(measure), int(capacity), float(damping), int(seed)
    )
    setup_s = time.process_time() - cpu0

    import passes

    # at reference speed, with the machine's speed sampled right after
    setup_s /= passes.slowdown(SETUP_UNITS)
    if len(argv) == 4:
        print(repr(setup_s))
        return 0

    import json
    import pickle

    import workloads

    name, stream, reader_path, trace, spans = argv[4:]
    with open(reader_path, "rb") as fh:
        reader, probes = pickle.load(fh)
    result = passes.run_pass(
        rps,
        catalog,
        sampler,
        workloads.BY_NAME[name],
        _read_lines(stream),
        reader,
        probes,
        traced=trace == "1",
        spans_path=None if spans == "-" else spans,
    )
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
