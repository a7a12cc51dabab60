"""Run one `diffcomp` command with the benchmark's tracer installed.

    python3 launcher.py TRACE_FILE KIND JOB_ID -- ARG...

behaves as `diffcomp ARG...`: the same stdout, stderr and exit code.  When
the command ends, its spans and counters go to TRACE_FILE as JSON for the
parent benchmark process to merge.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_file, kind, job_id, dashes, *argv = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: launcher.py TRACE_FILE KIND JOB_ID -- ARG...")
    tracer = Tracer()
    tracer.install()
    tracer.begin_job(kind, int(job_id))
    import diffcomp.cli
    try:
        return diffcomp.cli.main(argv)
    finally:
        sys.stdout.flush()
        data = dict(tracer.to_json(), wrapped_s=tracer.wrapped_time())
        with open(trace_file, "w") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
