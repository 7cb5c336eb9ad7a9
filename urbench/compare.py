#!/usr/bin/env python3
"""Compare two sets of benchmark reports (a base and a change).

    python3 urbench/compare.py --base base/*.json --new new/*.json

Each argument is a report written by run.py (.bench_out/*.json). Runs pair
up by (workload, trace, seed). The comparison is refused (exit 2) when the
pairing is incomplete or when any two runs' environment stamps differ: CPU,
core count, SIMD level, build type, compiler, scale, run length. The git
commit and source digest are what is being compared, so they may differ.

For every metric, prints each side's median and quartiles over the paired
runs and the change in the median as a share of the base median. An
end-to-end metric whose median worsens by more than its bound in
BENCHMARK.json is a regression (exit 1). Each workload's line also gives
the median share of host CPU time stolen by the hypervisor during the
runs, and flags it when it exceeds STEAL_WARN_PCT: such a set's medians
measure the host's neighbours as much as the program.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Stamp fields that must be equal across every compared run.
ENVIRONMENT_KEYS = ("nproc", "cpu_model", "simd_level", "build_type",
                    "compiler", "scale", "seconds")
# Median host steal (percent of CPU time) above which a set is flagged.
STEAL_WARN_PCT = 2.0


class Refused(Exception):
    pass


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        stamp = report.get("stamp")
        if not isinstance(stamp, dict):
            raise Refused("%s has no stamp" % path)
        key = (stamp.get("workload"), bool(stamp.get("trace")),
               stamp.get("seed"))
        if key in runs:
            raise Refused("%s repeats run %r" % (path, key))
        runs[key] = report
    return runs


def check_stamps(base, new):
    """Raises Refused unless the two run sets are comparable."""
    if set(base) != set(new):
        raise Refused("runs do not pair up: base only %s, new only %s" % (
            sorted(set(base) - set(new)), sorted(set(new) - set(base))))
    reference = None
    for side, runs in (("base", base), ("new", new)):
        for key, report in sorted(runs.items()):
            environment = {k: report["stamp"].get(k) for k in ENVIRONMENT_KEYS}
            if reference is None:
                reference = (side, key, environment)
            elif environment != reference[2]:
                differing = sorted(k for k in ENVIRONMENT_KEYS
                                   if environment[k] != reference[2][k])
                raise Refused("stamps differ (%s) between %s %r and %s %r" % (
                    ", ".join(differing), reference[0], reference[1], side,
                    key))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def steal_note(base, new, keys):
    """Median host steal of each side, flagged when either is high."""
    medians = []
    for runs in (base, new):
        values = [runs[k].get("detail", {}).get("host_steal_pct") for k in keys]
        values = [v for v in values if isinstance(v, (int, float))]
        medians.append(statistics.median(values) if values else None)
    if None in medians:
        return ""
    note = "  host steal %.1f%% / %.1f%%" % tuple(medians)
    if max(medians) > STEAL_WARN_PCT:
        note += " NOISY HOST (above %.0f%%)" % STEAL_WARN_PCT
    return note


def compare(base, new, out=sys.stdout):
    """Prints the comparison; returns the number of regressions."""
    spec = bounds()
    regressions = 0
    groups = sorted({(w, t) for (w, t, _) in base})
    for workload, trace in groups:
        keys = sorted(k for k in base if k[:2] == (workload, trace))
        print("%s (%s, %d runs)%s" % (workload, "traced" if trace else
                                       "untraced", len(keys),
                                       steal_note(base, new, keys)), file=out)
        names = []
        for key in keys:
            for name in base[key].get("metrics", {}):
                if name not in names:
                    names.append(name)
        for name in names:
            b = [base[k]["metrics"][name]["value"] for k in keys
                 if name in base[k].get("metrics", {})]
            n = [new[k]["metrics"][name]["value"] for k in keys
                 if name in new[k].get("metrics", {})]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            delta = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            verdict = ""
            metric = spec.get(name)
            if metric is not None and not trace:
                worse = -delta if metric["better"] == "higher" else delta
                if worse > metric["bound"]:
                    verdict = "REGRESSION (bound %.0f%%)" % (
                        100 * metric["bound"])
                    regressions += 1
            print("  %-28s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  "
                  "%+.1f%% %s" % (name, bq[1], bq[0], bq[2], nq[1], nq[0],
                                   nq[2], 100 * delta, verdict), file=out)
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        base, new = load(args.base), load(args.new)
        check_stamps(base, new)
    except (Refused, OSError, ValueError) as error:
        print("compare: refused: %s" % error, file=sys.stderr)
        return 2
    return 1 if compare(base, new) else 0


if __name__ == "__main__":
    sys.exit(main())
