"""Self-check of the benchmark itself.

    python3 perfbench/selftest.py

For every workload, in fresh processes: the same seed gives the same
operations and bit-identical results, another seed gives other
operations, every end-to-end metric is reported, and no operation fails
on the current code.  Exits non-zero and names each failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
OPS = {"smooth": 60, "singular": 12, "fields": 10, "cli": 9}
END_TO_END = ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s", "fail_frac")


def run(workload, seed, tag):
    record = os.path.join(OUT, "selftest-%s-%s.json" % (workload, tag))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--max-ops", str(OPS[workload]), "--setup-samples", "1", "--record", record],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    with open(record, encoding="utf-8") as fh:
        return lines, json.loads(lines[-1]), json.load(fh)


def main():
    os.makedirs(OUT, exist_ok=True)
    problems = []
    for w in OPS:
        before = len(problems)
        lines, result, first = run(w, 7, "a")
        _, _, again = run(w, 7, "b")
        _, _, other = run(w, 8, "c")
        if first != again:
            problems.append("%s: seed 7 did not repeat its ops and results bit for bit" % w)
        if [r["op"] for r in first] == [r["op"] for r in other]:
            problems.append("%s: seeds 7 and 8 gave the same ops" % w)
        printed = {line.split()[0] for line in lines[:-1] if line.strip()}
        missing = [m for m in END_TO_END if m not in printed]
        if missing:
            problems.append("%s: metrics not printed: %s" % (w, ", ".join(missing)))
        if set(result["metrics"]) != set(END_TO_END) - {"fail_frac"}:
            problems.append("%s: result line has metrics %s" % (w, sorted(result["metrics"])))
        if result["failed"] or not result["correct"] or not all(r["ok"] for r in first):
            problems.append("%s: %d of %d ops failed" % (w, result["failed"], result["attempted"]))
        print("%-9s %s" % (w, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
