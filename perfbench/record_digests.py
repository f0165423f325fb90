#!/usr/bin/env python3
"""Record the sha256 of every pool entry's report in `digests.json`.

    python3 perfbench/record_digests.py

Run from the root of a checkout after a change to blockq alters a report on
purpose.  Each entry's answer is checked against `pools.json` first; nothing
is written if one is wrong.
"""

import json
import sys
from contextlib import nullcontext

import jobs as jobmod
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pools = jobmod.load_pools()
    digests, wrong = {}, 0
    for entry in jobmod.all_entries(pools):
        lib = run.load_blockq()
        data = jobmod.run_job(lib, entry, jobmod.setup_job(lib, pools, entry), nullcontext)
        key = jobmod.job_key(entry)
        digests[key] = jobmod.digest(data)
        for err in jobmod.check_answer(entry, data, digests):
            print(f"FAIL {key}: {err}", file=sys.stderr)
            wrong += 1
    if wrong:
        return 1
    jobmod.DIGESTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
