"""Compare two benchmark records written by `bench/run.py --out`.

    python3 bench/compare.py BASE.json NEW.json

Work counts are printed apart from timings: a count is either identical or
it differs (its ratio is then printed with its base), whereas a timing is
printed as new / base with the base value beside it.
"""

import argparse
import json

COUNT_UNITS = ("count", "bytes")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def rows(base, new, names):
    for name in names:
        b, n = base.get(name), new.get(name)
        if b is None or n is None:
            yield name, b, n, "absent in " + ("base" if b is None else "new")
        elif b == 0:
            yield name, b, n, "identical" if n == 0 else "base is 0"
        else:
            yield name, b, n, f"x{n / b:.4f} of base {b:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            raise SystemExit(f"records differ in {key}: {base[key]} vs {new[key]}")
    print(f"workload {base['workload']}, trace {base['trace']}: seed {base['seed']} "
          f"({base['environment']['git_commit']}) -> seed {new['seed']} ({new['environment']['git_commit']})")

    units = {name: m["unit"] for rec in (base, new) for name, m in rec["metrics"].items()}
    value = lambda rec: {name: m["value"] for name, m in rec["metrics"].items()}
    counts = sorted(name for name, unit in units.items() if unit in COUNT_UNITS)
    timings = sorted(name for name, unit in units.items() if unit not in COUNT_UNITS)
    base_counts = {**base.get("counts", {}), **{k: v for k, v in value(base).items() if k in counts}}
    new_counts = {**new.get("counts", {}), **{k: v for k, v in value(new).items() if k in counts}}

    print("\ncounts (must repeat exactly on the same seed and code)")
    for name, b, n, note in rows(base_counts, new_counts, sorted(set(base_counts) | set(new_counts))):
        print(f"  {name:42s} {b!s:>12} {n!s:>12}  {'identical' if b == n else note}")
    print("\ntimings and sizes (new / base)")
    for name, b, n, note in rows(value(base), value(new), timings):
        print(f"  {name:42s} [{units[name]}] {note}")
    if "task_p50_s" in base and "task_p50_s" in new:
        latency = lambda rec: {"task_p50_s": rec["task_p50_s"], "task_tail_s": rec["task_tail"]["seconds"]}
        print("\ntask latency, not bounded (new / base)")
        for name, b, n, note in rows(latency(base), latency(new), ("task_p50_s", "task_tail_s")):
            print(f"  {name:42s} [s] {note}")
    for rec, label in ((base, "base"), (new, "new")):
        if rec["failures"]:
            print(f"\n{label} failures: " + "; ".join(rec["failures"]))


if __name__ == "__main__":
    main()
