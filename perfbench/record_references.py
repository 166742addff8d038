"""Record the references the correctness gate compares study outputs with.

    python3 perfbench/record_references.py

Runs each study workload at seed 0 (the shipped coefficient) at both sizes and
writes the per-rung functionals and rate statuses to references.json, with
the effective tensors of the cell_tensor base tables.  Other seeds are checked
against these scaled by 1/factor, or carried through the seed's symmetry.  Re-record only in a
change that means to move the numerics, and say so in that change.
"""

import json

import run
import workloads


def main() -> None:
    references = {}
    for size in (workloads.FULL, workloads.TINY):
        for workload in workloads.STUDY_CONFIGS:
            (op,) = workloads.round_ops(workload, 0, size)
            result = run.spawn(op, False)["result"]
            references[op["reference"]] = {
                "reports": [
                    {key: r[key] for key in ("epsilon", *workloads.FUNCTIONALS)}
                    for r in result["reports"]
                ],
                "statuses": result["statuses"],
            }
        tables = [op for op in workloads.round_ops("cell_tensor", 0, size) if op["check"] == "table"]
        references[f"cell_tensor/{size.name}"] = {
            "tensors": [run.spawn(op, False)["result"]["tensor"] for op in tables]
        }
    workloads.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
