"""XML codec cost per message size: the REST result encode and decode.

``xmlkit`` is the codec under every binding (SOAP, REST, WSDL, the
gateway, ``account.xml``).  A REST answer is encoded once by the replica
and, through the gateway, parsed and encoded once more, so any cost the
codec pays per character is paid several times per request.  This
benchmark times the two halves of that round trip at the cache
workload's value sizes —

* **encode_<size>**: ``to_element("result", value).toxml()``
* **decode_<size>**: ``from_element(parse(xml))`` of that answer
* **round_trip_128**: both halves at 128 B (the normalising row)

— and records the results in ``BENCH_xmlkit.json`` next to the repo
root.  ``bench_regression_guard.py`` divides every row by the same run's
``round_trip_128``, so a per-byte cost that comes back shows as drift in
the large rows.  Acceptance here: the marginal cost of a byte (the slope
between the 128 B and 16 KB rows) stays under ``CEILINGS`` nanoseconds;
a Python step per character costs far more.

Timing method: the median of REPEATS batches of CALLS calls per row,
the rows taking turns within each repeat.
"""

import json
import random
import statistics
import string
import time
from pathlib import Path

from repro.xmlkit import from_element, parse, to_element

CALLS = 100
REPEATS = 45
SEED = 17
SIZES = {"128": 128, "1k": 1024, "4k": 4096, "16k": 16384}
#: what the values are drawn from: the ASCII letters of the end-to-end
#: cache workload's values, plus line breaks for the line counter
ALPHABET = string.ascii_letters + "\n"
#: ceilings on the marginal cost of a byte, in nanoseconds (a 2-vCPU
#: host read 1-3 for both here, and 70-86 and 38-66 with a Python step
#: per character)
CEILINGS = {"encode": 15.0, "decode": 15.0}
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_xmlkit.json"


def encode(value: str) -> str:
    return to_element("result", value).toxml()


def decode(xml: str) -> str:
    return from_element(parse(xml))


def round_trip(value: str) -> str:
    return decode(encode(value))


def median_microseconds(cases: dict) -> dict[str, float]:
    """Median-of-REPEATS microseconds per call of each ``fn(arg)`` case.

    The cases take turns within every repeat, so a slow or fast spell of
    the host lands on a batch of each rather than on every batch of one,
    and the median ignores a spell that only some rows catch."""
    batches: dict[str, list[float]] = {name: [] for name in cases}
    for _ in range(REPEATS):
        for name, (fn, arg) in cases.items():
            start = time.perf_counter()
            for _ in range(CALLS):
                fn(arg)
            batches[name].append(time.perf_counter() - start)
    return {
        name: statistics.median(seconds) / CALLS * 1e6
        for name, seconds in batches.items()
    }


def test_codec_cost_per_size(report):
    rng = random.Random(SEED)
    values = {
        label: "".join(rng.choice(ALPHABET) for _ in range(size))
        for label, size in SIZES.items()
    }
    for value in values.values():
        assert round_trip(value) == value  # correctness before speed

    cases = {"round_trip_128": (round_trip, values["128"])}
    for label, value in values.items():
        cases[f"encode_{label}"] = (encode, value)
        cases[f"decode_{label}"] = (decode, encode(value))
    rows = median_microseconds(cases)

    extra_bytes = SIZES["16k"] - SIZES["128"]
    ns_per_byte = {
        half: (rows[f"{half}_16k"] - rows[f"{half}_128"]) / extra_bytes * 1e3
        for half in CEILINGS
    }
    results = {
        "calls": CALLS,
        "repeats": REPEATS,
        "method": "interleaved median-of-repeats wall time per batch",
        "sizes_bytes": SIZES,
        "microseconds_per_call": rows,
        "ns_per_byte": ns_per_byte,
        "ceilings": CEILINGS,
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    lines = [f"{name:<15}: {us:8.2f} us/call" for name, us in rows.items()]
    lines += [f"{half} slope   : {ns:8.2f} ns/byte" for half, ns in ns_per_byte.items()]
    lines.append(f"written to     : {RESULTS_PATH.name}")
    report("XML codec cost per message size", "\n".join(lines))

    # Acceptance: message cost does not grow by a Python step per byte.
    for half, ceiling in CEILINGS.items():
        assert ns_per_byte[half] <= ceiling, (
            f"{half} costs {ns_per_byte[half]:.1f} ns per extra byte "
            f"(ceiling {ceiling:.0f})"
        )
