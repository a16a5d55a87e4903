#!/usr/bin/env python3
"""Write ``reference.json``: the outputs of the first ops of every workload
at the default seed and full scale, which later runs check at rounding-level
tolerance. Regenerate it only when a change is meant to alter outputs, and
say so where the change is described.

    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile

import run  # pins BLAS threads before numpy is imported

REFERENCE_OPS = {"surface-mixed": 2, "pretrain-desk": 3, "score-sat": 1,
                 "score-multi-default": 1}


def main() -> int:
    run.import_program()
    import workloads

    reference = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name, count in REFERENCE_OPS.items():
            workload = workloads.WORKLOADS[name](seed=workloads.DEFAULT_SEED,
                                                 scale="full", workdir=tmp)
            workload.setup()
            reference[name] = [workload.reference_values(i, workload.op(i))
                               for i in range(count)]
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
