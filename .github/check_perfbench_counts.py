#!/usr/bin/env python3
"""Check a traced perfbench result against committed counts.

    python3 .github/check_perfbench_counts.py <counts.json> <perfbench stdout>

The last line of the perfbench output is its JSON result. Every metric under
"exact" in counts.json must equal the result's value, every metric under
"ceiling" must not exceed it, and the result must be "correct". Exits 1 on
any mismatch, listing each one.
"""
import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        want = json.load(f)
    with open(sys.argv[2]) as f:
        result = json.loads(f.read().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    problems = []
    if not result["correct"]:
        problems.append("perfbench reported correct: false")
    for name, value in want["exact"].items():
        got = metrics.get(name)
        if got != value:
            problems.append(f"{name}: got {got}, committed {value}")
    for name, ceiling in want["ceiling"].items():
        got = metrics.get(name)
        if got is None or got > ceiling:
            problems.append(f"{name}: got {got}, ceiling {ceiling}")
    for p in problems:
        print(f"perfbench counts: {p}", file=sys.stderr)
    if not problems:
        checked = len(want["exact"]) + len(want["ceiling"])
        print(f"perfbench counts: {checked} values match {sys.argv[1]}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
