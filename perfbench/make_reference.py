#!/usr/bin/env python3
"""Write the stored output references of the pipeline workloads.

Usage, from the repository root::

    python3 perfbench/make_reference.py --workload large-trace --seeds 0-63

For every seed the workload's archives are built as in the benchmark's
set-up and characterized once with the program's defaults; the digest of
each archive's bottleneck report, issue list and outlier set is stored in
``perfbench/reference/<workload>.json``.  A benchmark run on a stored seed
fails when any operation's outputs differ from it.  Regenerate only for a
change that is meant to alter those outputs, and say so where it lands.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import pipeline  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("large-trace", "paper-grid"))
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-63")
    args = parser.parse_args()
    from repro.workloads.archive import characterize_archive

    path = ROOT / "perfbench" / "reference" / f"{args.workload}.json"
    doc = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    work = ROOT / ".perfbench-work" / f"reference-{args.workload}"
    try:
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            try:
                archives = pipeline.setup_archives(args.workload, seed, work)
            except ValueError as exc:  # the benchmark fails on this seed too
                print(f"{args.workload} seed {seed}: set-up failed, no reference: {exc}")
                continue
            entry = {}
            for archive in archives:
                profile = characterize_archive(archive)
                report = profile.check_invariants()
                if not report.ok:
                    raise SystemExit(f"seed {seed} {archive.name}: {report.violations[:3]}")
                entry[archive.name] = pipeline.output_digest(profile)
            doc["seeds"][str(seed)] = entry
            print(f"{args.workload} seed {seed}: {len(entry)} archive(s)", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    seeds = sorted(doc["seeds"].items(), key=lambda kv: int(kv[0]))
    lines = [f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}" for seed, entry in seeds]
    path.write_text('{"seeds": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
