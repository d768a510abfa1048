"""Compare the output hashes of two ladder files written by tools/ladder.py.

    python3 tools/compare_bench.py OLD NEW

Rows are keyed by (n, weights, seed, stopping, route). The script prints
every key whose `hash` or `values_hash` differs between the files, every
key found in only one of them, and a summary count. Where either row
has no `values_hash` (files written before it existed), only `hash` is
compared. After the summary it prints, for each file, the total
`seconds` per route over the rows both files share, split into settled
rows (`nontrivial` == 0) and nontrivial rows; rows without the field
(files written before it existed) are totalled apart. It then prints
each file's total `iterations` (the route's own count: simplex pivots,
improvement rounds, productive sweeps or attractor depth) and total
`evaluations` (exact strategy-pair evaluations) per route over the same
rows, and how many rows have no such field or hold null there (`mc`
rows have no iterations). Exits 0 when every row matches and 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys


def rows_by_key(path: str) -> dict[tuple, dict]:
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)["games"]
    keyed = {}
    for row in rows:
        # files written before the weight families have no "weights"
        key = (row["n"], tuple(row.get("weights", ())), row["seed"], row["stopping"], row["route"])
        if key in keyed:
            raise SystemExit(f"{path}: duplicate row {key}")
        keyed[key] = row
    return keyed


def differing_fields(old: dict, new: dict) -> list[str]:
    fields = ["hash"]
    if "values_hash" in old and "values_hash" in new:
        fields.append("values_hash")
    return [f for f in fields if old[f] != new[f]]


PARTS = ("settled", "nontrivial", "no nontrivial field")


def route_totals(rows: dict[tuple, dict], keys) -> dict[str, dict[str, list]]:
    """{route: {part: [seconds, rows]}} over keys, for each part in PARTS."""
    totals: dict[str, dict[str, list]] = {}
    for key in keys:
        row = rows[key]
        count = row.get("nontrivial")
        part = "no nontrivial field" if count is None else "nontrivial" if count else "settled"
        cell = totals.setdefault(row["route"], {}).setdefault(part, [0.0, 0])
        cell[0] += row["seconds"]
        cell[1] += 1
    return totals


def count_totals(rows: dict[tuple, dict], keys, field: str) -> dict[str, list]:
    """{route: [total of field, rows with it, rows without it]} over keys."""
    totals: dict[str, list] = {}
    for key in keys:
        row = rows[key]
        cell = totals.setdefault(row["route"], [0, 0, 0])
        if row.get(field) is None:
            cell[2] += 1
        else:
            cell[0] += row[field]
            cell[1] += 1
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = rows_by_key(args.old), rows_by_key(args.new)

    def name(key):
        n, weights, seed, stopping, route = key
        mix = ":".join(map(str, weights))
        return f"n={n} weights={mix} seed={seed} stopping={stopping} route={route}"

    differ = only_old = only_new = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            only_old += 1
            print(f"only in {args.old}: {name(key)}")
        elif key not in old:
            only_new += 1
            print(f"only in {args.new}: {name(key)}")
        else:
            fields = differing_fields(old[key], new[key])
            if fields:
                differ += 1
                print(f"differs in {', '.join(fields)}: {name(key)}")
    equal = len(old.keys() & new.keys()) - differ
    print(f"{equal} rows equal, {differ} differ, {only_old} only in {args.old}, "
          f"{only_new} only in {args.new}")
    shared = sorted(old.keys() & new.keys())
    for path, rows in ((args.old, old), (args.new, new)):
        print(f"seconds per route in {path} over the {len(shared)} shared rows:")
        for route, parts in sorted(route_totals(rows, shared).items()):
            total = sum(seconds for seconds, _ in parts.values())
            split = ", ".join(f"{part} {parts[part][0]:.6f} ({parts[part][1]} rows)"
                              for part in PARTS if part in parts)
            print(f"  {route}: {total:.6f} = {split}")
    for field in ("iterations", "evaluations"):
        for path, rows in ((args.old, old), (args.new, new)):
            print(f"{field} per route in {path} over the {len(shared)} shared rows:")
            for route, (count, counted, missing) in sorted(count_totals(rows, shared, field).items()):
                print(f"  {route}: {count} in {counted} rows, {missing} rows without the field")
    return 1 if differ or only_old or only_new else 0


if __name__ == "__main__":
    sys.exit(main())
