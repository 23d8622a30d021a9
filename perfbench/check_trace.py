#!/usr/bin/env python3
"""Check a glto_perfbench trace and print the per-layer self-time table.

    python3 perfbench/check_trace.py .bench_build/trace-tasks-1.json

The trace is {"workload", "seed", "spans": [{"id", "parent", "name",
"layer", "start_ns", "end_ns", "counters"}]}, written by the traced run.
Checks: ids are unique, every span is closed (end >= start), every parent
exists, and every child lies inside its parent. A span's self time is its
duration minus the part of it its children cover; the table sums self
time per layer. Exits 1 when a check fails.
"""
import json
import sys


def _covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def check(path):
    """Returns (ok, printable report)."""
    try:
        with open(path) as f:
            doc = json.load(f)
        spans = doc["spans"]
    except (OSError, ValueError, KeyError) as e:
        return False, "trace check FAILED: cannot load %s: %s" % (path, e)
    errors = []
    by_id = {}
    for s in spans:
        if s["id"] in by_id:
            errors.append("duplicate span id %d" % s["id"])
        by_id[s["id"]] = s
        if s["end_ns"] < s["start_ns"] or s["end_ns"] == 0:
            errors.append("span %d (%s) is not closed" % (s["id"], s["name"]))
    children = {}
    for s in spans:
        if s["parent"] == 0:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            errors.append("span %d (%s) has no parent %d"
                          % (s["id"], s["name"], s["parent"]))
            continue
        if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            errors.append("span %d (%s) lies outside its parent %d (%s)"
                          % (s["id"], s["name"], p["id"], p["name"]))
        children.setdefault(p["id"], []).append((s["start_ns"], s["end_ns"]))

    layers = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        self_ns = dur - _covered(children.get(s["id"], []))
        row = layers.setdefault(s["layer"], [0, 0])
        row[0] += 1
        row[1] += self_ns
    total = sum(r[1] for r in layers.values()) or 1
    out = ["# trace %s: %d spans, workload %s, nesting %s"
           % (path, len(spans), doc.get("workload"),
              "ok" if not errors else "FAILED")]
    out += ["#   " + e for e in errors[:20]]
    out.append("# %-12s %7s %14s %7s" % ("layer", "spans", "self_ms", "share"))
    for layer, (n, ns) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        out.append("# %-12s %7d %14.3f %6.1f%%"
                   % (layer, n, ns / 1e6, 100.0 * ns / total))
    return not errors, "\n".join(out)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    ok, report = check(sys.argv[1])
    print(report)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
