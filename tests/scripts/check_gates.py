#!/usr/bin/env python3
"""Acceptance gates over the JsonLine records the benches emit.

Every gate CI enforces on a bench's JSONL artifact lives in the GATES table
below: which records it reads, which field, the comparison and the
threshold. Usage:

    check_gates.py <suite> <records.jsonl>

runs every gate of <suite> against the file, prints one PASS/FAIL line per
gate, and exits non-zero if any gate fails.
"""

import json
import operator
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Field:
    """A threshold read from another field of the same record."""

    name: str


@dataclass(frozen=True)
class Gate:
    """One gate. `where` selects records by exact field values.

    quantifier "any": some selected record passes; "all": every selected
    record passes (and there is at least one); "none": no selected record
    carries `field` compared true (vacuously true when none are selected);
    "count": the number of selected records compared to the threshold.
    """

    where: dict
    field: str
    op: str
    threshold: object
    quantifier: str = "any"


OPS = {
    "==": operator.eq,
    ">": operator.gt,
    ">=": operator.ge,
    "<=": operator.le,
}


def present(bench):
    """At least one record of `bench` was emitted."""
    return Gate({"bench": bench}, "records", ">=", 1, "count")


GATES = {
    "persist_recovery": [present("persist_recovery")],
    "chaos": [
        present("chaos"),
        # the invariant the sweep exists to enforce
        Gate({"bench": "chaos"}, "evidence_safety_violations", "==", 0, "all"),
    ],
    "crypto_ablation": [
        # >=2x batch leaf hashing, >=5x repeated proof serving, and the tree
        # cache actually avoided rebuilds
        Gate({"bench": "crypto_accel_batch"}, "meets_2x", "==", True),
        Gate({"bench": "crypto_accel_proofs"}, "meets_5x", "==", True),
        Gate({"bench": "crypto_counters"}, "tree_rebuilds_avoided", ">=", 1),
        # Montgomery/CIOS verify >=4x, CRT signing >=2x over full-width
        # exponentiation
        Gate({"bench": "crypto_rsa_fast"}, "verify_meets_4x", "==", True),
        Gate({"bench": "crypto_rsa_fast"}, "sign_meets_2x", "==", True),
        # the dispatched single-stream kernel hashes exactly like the
        # portable rounds
        Gate({"bench": "crypto_sha256_single"}, "kernels_agree", "==", True),
    ],
    "dyn_audit": [
        present("dyn_audit"),
        # aggregated audits cost <=0.05x the legacy per-chunk bytes on every
        # object size, and the 1024-chunk object sees >=20x reduction
        Gate({"bench": "dyn_audit"}, "meets_compact_gate", "==", False,
             "none"),
        Gate({"bench": "dyn_audit", "chunks": 1024}, "meets_20x", "==", True),
    ],
    "fork_detection": [
        present("fork_detection"),
        # every forked configuration is detected with a verifiable proof,
        # and no honest control ever accuses
        Gate({"bench": "fork_detection_summary"}, "detection_rate", "==", 1),
        Gate({"bench": "fork_detection_summary"}, "false_accusations", "==",
             0),
    ],
    "scale": [
        # protocol outcomes are identical for every shard/worker combination
        Gate({"config": "sweep-summary"}, "digests_match", "==", True),
        # the COW payload eliminates >=90% of copies under chaos
        Gate({"config": "chaos-copy-ab"}, "copy_reduction", ">=", 0.9),
    ],
    "scale_fleet": [
        Gate({"bench": "crypto_counters", "scope": "fleet_sweep"},
             "lane_fill_rate", ">", 4.0),
        Gate({"bench": "crypto_counters", "scope": "fleet_sweep"},
             "service_jobs", ">", 0),
        Gate({"config": "fleet-summary"}, "digest_shard_invariant", "==",
             True),
        Gate({"config": "fleet-summary"}, "speedup_workers4", ">", 1.0),
        Gate({"config": "fleet-summary"}, "capacity_completed", "==",
             Field("capacity_clients")),
        Gate({"config": "fleet-summary"}, "capacity_clients", ">=", 100000),
        Gate({"config": "fleet-summary"}, "rss_per_client_kb", "<=", 24.0),
        Gate({"config": "fleet-summary"}, "partitions_used", "==",
             Field("ttp_partitions")),
    ],
}


def compare(record, gate):
    """(passed, shown value) for one record; a missing field fails."""
    if gate.field not in record:
        return False, "<missing>"
    value = record[gate.field]
    threshold = gate.threshold
    if isinstance(threshold, Field):
        if threshold.name not in record:
            return False, value
        threshold = record[threshold.name]
    # JSON booleans only compare equal to booleans (True == 1 in Python).
    if isinstance(threshold, bool) != isinstance(value, bool):
        return False, value
    return OPS[gate.op](value, threshold), value


def describe(gate):
    where = ",".join(f"{k}={v}" for k, v in gate.where.items())
    threshold = gate.threshold
    if isinstance(threshold, Field):
        threshold = threshold.name
    return f"[{where}] {gate.quantifier} {gate.field} {gate.op} {threshold}"


def check(gate, records):
    selected = [r for r in records
                if all(r.get(k) == v for k, v in gate.where.items())]
    if gate.quantifier == "count":
        ok = OPS[gate.op](len(selected), gate.threshold)
        return ok, f"{len(selected)} record(s)"
    results = [compare(r, gate) for r in selected]
    values = [value for _, value in results]
    if gate.quantifier == "any":
        ok = any(passed for passed, _ in results)
    elif gate.quantifier == "all":
        ok = bool(results) and all(passed for passed, _ in results)
    elif gate.quantifier == "none":
        ok = not any(passed for passed, _ in results)
    else:
        raise ValueError(f"unknown quantifier {gate.quantifier}")
    if not values:
        return ok, "no matching records"
    shown = ", ".join(map(str, values[:8]))
    more = f" (+{len(values) - 8} more)" if len(values) > 8 else ""
    return ok, f"values {shown}{more}"


def load(path):
    """The experiment records of a JSONL file. process_meta records carry a
    run's configuration (shards, workers, RSS), never an outcome, so no gate
    reads them."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("{"):
                record = json.loads(line)
                if record.get("record") != "process_meta":
                    records.append(record)
    return records


def main(argv):
    if len(argv) != 3 or argv[1] not in GATES:
        print(__doc__, file=sys.stderr)
        print("suites: " + ", ".join(GATES), file=sys.stderr)
        return 2
    suite, path = argv[1], argv[2]
    records = load(path)
    failed = 0
    for gate in GATES[suite]:
        ok, detail = check(gate, records)
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {describe(gate)} -- {detail}")
    print(f"{suite}: {len(GATES[suite]) - failed}/{len(GATES[suite])} gates "
          f"pass over {len(records)} records in {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
