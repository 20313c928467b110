"""End-to-end smoke test of the columnar profile storage format (CI job).

One tiny run, three checks:

1. the profile's columnar file round-trips through the memmap format
   byte-for-byte (``save`` → ``open`` → ``save`` reproduces the file);
2. the profile rebuilt from the memmap-backed file exports exactly like
   the original (``from_profile`` / ``to_profile`` are lossless);
3. the rebuilt profile passes every pipeline invariant.

Exit code 0 on success, 1 on any mismatch.  Run via ``make columnar-smoke``.
"""

import json
import sys
import tempfile
from pathlib import Path


def main() -> int:
    from repro.core.columnar import ColumnarProfile
    from repro.core.export import profile_to_dict
    from repro.workloads import WorkloadSpec, characterize_run, run_workload

    spec = WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=0)
    print(f"columnar-smoke: running {spec.label} (tiny) ...")
    profile = characterize_run(run_workload(spec))
    cp = ColumnarProfile.from_profile(profile)

    # 1. Memmap file round-trip, byte-for-byte.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.g10col"
        cp.save(path)
        with ColumnarProfile.open(path) as reopened:  # memmap-backed
            if not reopened.equals(cp):
                print("columnar-smoke: FAIL reopened profile differs")
                return 1
            resaved = Path(tmp) / "resaved.g10col"
            reopened.save(resaved)
            if path.read_bytes() != resaved.read_bytes():
                print("columnar-smoke: FAIL save(open(f)) is not byte-identical")
                return 1
            size = path.stat().st_size
            print(f"columnar-smoke: memmap round-trip OK ({size} file bytes)")

            # 2. The stored profile rebuilds exactly.
            rebuilt = reopened.to_profile()
            if profile_to_dict(rebuilt, series=True) != profile_to_dict(profile, series=True):
                print("columnar-smoke: FAIL rebuilt profile exports differently")
                return 1
            print("columnar-smoke: rebuilt profile matches")

            # 3. Invariants hold on the rebuilt profile.
            report = rebuilt.check_invariants()
            if not report.ok:
                print("columnar-smoke: FAIL invariant violations:")
                print(report.render())
                return 1
            print("columnar-smoke: invariants OK")
    print(json.dumps({"columnar_smoke": "ok", "file_bytes": size}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
