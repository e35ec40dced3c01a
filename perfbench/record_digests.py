"""Record the sha256 digest of every ladder query's output.

    python3 perfbench/record_digests.py

Run at a commit whose outputs are trusted; a later commit must reproduce
every digest.  Before writing, each output named in ``workloads.REFERENCES``
must equal the output of its reference (another backend on the same input),
and every query must exit 0.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    lib = run.import_library()
    digests = {}
    for name in workloads.LADDERS:
        outputs = {}
        for qid, spec in workloads.LADDERS[name]:
            code, out = workloads.make_query(lib, qid, spec).run()
            if code != 0:
                sys.exit(f"{qid}: exit code {code}")
            outputs[qid] = out
        for qid, ref in workloads.REFERENCES.items():
            if qid not in outputs:
                continue
            want = outputs[ref] if ref in outputs else workloads.make_query(lib, qid, ref).run()[1]
            if outputs[qid] != want:
                sys.exit(f"{qid}: output differs from its reference {ref!r}")
        digests[name] = {qid: workloads.digest(out) for qid, out in outputs.items()}
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.DIGESTS_FILE}")


if __name__ == "__main__":
    main()
