"""The byte contract: perfbench's reference digests, replayed in Tier-1.

``perfbench/refs.json`` holds the sha256 of the exit status and output of
every request the benchmark can send.  These tests replay a fixed share of
them, each in a child forked from this process, as the benchmark runs
them:

- every classes and every combinatorics request;
- every cli ``points`` and ``series`` request;
- every 4th of the other cli requests, in sorted key order, which together
  with the above names every cli command.

perfbench is only imported, never changed.  The full replay of all requests
prints each mismatch, then the count and the time, and exits 1 on any
mismatch:

    PYTHONPATH=src python3 tests/test_byte_contract.py
"""

import json
import os
import sys
import time

import pytest


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import make_refs  # noqa: E402
import workloads  # noqa: E402


def _cli(pick):
    return [req for req in workloads.all_requests("cli") if pick(req["argv"][0])]


GROUPS = {
    "classes": workloads.all_requests("classes"),
    "combinatorics": workloads.all_requests("combinatorics"),
    "cli points": _cli(lambda command: command == "points"),
    "cli series": _cli(lambda command: command == "series"),
    "cli other": _cli(lambda command: command not in ("points", "series"))[::4],
}


def mismatches(requests):
    """Keys of the requests whose digest differs from refs.json."""
    with open(os.path.join(PERFBENCH, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    out = []
    for req in requests:
        key = workloads.request_key(req)
        if make_refs.digest_in_child(req) != refs.get(key):
            out.append(key)
    return out


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_replay_matches_refs(group):
    assert mismatches(GROUPS[group]) == []


def test_replayed_cli_share_names_every_command():
    every = {req["argv"][0] for req in workloads.all_requests("cli")}
    replayed = {req["argv"][0] for name in GROUPS if name.startswith("cli") for req in GROUPS[name]}
    assert replayed == every
    assert len(every) == 7


def main():
    start, bad, count = time.perf_counter(), [], 0
    for workload in workloads.WORKLOADS:
        requests = workloads.all_requests(workload)
        bad += mismatches(requests)
        count += len(requests)
    for key in bad:
        print("mismatch: %s" % key)
    print("%d of %d requests mismatch, %.1f s" % (len(bad), count, time.perf_counter() - start))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
