"""One benchmark repeat, in a fresh process.

Usage: python3 worker.py JOB.json

The job names the checkout's ``src`` directory, the workload, the config
file and whether to trace.  The worker runs ``clebschflow run`` through
``cli.main`` once per scheme (collective, then conventional), checks the
diagnostics it wrote, and writes its measurements to the job's result
path.  Its clock starts before the package, or numpy, is imported.
An untraced worker samples the host's speed throughout (see
hostspeed.py) and reports its times at the reference host speed, with
the raw times beside them.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import numpy
    from clebschflow import cli

    host = hostspeed.HostSpeed(
        workloads.WORKLOADS[job["workload"]].host_kernel)
    if not job["trace"]:
        host.start()
    tracer = tracing.Tracer()
    tracing.install(tracer, job["trace"])
    main = tracer.wrap("cli.main", cli.main) if job["trace"] else cli.main
    out_dir = Path(job["out_dir"])
    codes, csvs = {}, {}
    for scheme in tracing.SCHEMES:
        tracer.scheme = scheme
        csvs[scheme] = out_dir / f"{scheme}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            codes[scheme] = main(["run", "--config", job["config_path"],
                                  "--method", scheme,
                                  "--out", str(csvs[scheme])])
    end = time.perf_counter()
    host.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    files = [p for path in csvs.values()
             for p in (path, path.with_name(path.stem + "_final.csv"))]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in files if p.exists()}
    rows = {scheme: workloads.read_rows(path) if path.exists() else []
            for scheme, path in csvs.items()}
    config = json.loads(Path(job["config_path"]).read_text())
    failures = [f"{scheme}: exit status {code}"
                for scheme, code in codes.items() if code != 0]
    failures += workloads.check(workloads.WORKLOADS[job["workload"]],
                                config, rows)

    integrations = [s for s in tracer.spans
                    if s[tracing.NAME] == "dynamics.integrate"]

    def times(measure):
        first = integrations[0][tracing.START] if integrations else None
        step_ms = {}
        for span in integrations:
            steps = span[tracing.ATTRS]
            step_ms[span[tracing.SCHEME]] = (
                measure(span[tracing.START], span[tracing.END]) / steps * 1e3
                if steps else None)
        return {"wall_s": measure(T0, end),
                "setup_s": measure(T0, first) if integrations else None,
                "step_ms": step_ms}

    raw = times(host.busy)
    result = {
        **(times(host.normalized) if host.samples else raw),
        "raw": raw,
        "host_kernel_ms": (statistics.median(d for _, d in host.samples) * 1e3
                           if host.samples else None),
        "completed": {s[tracing.SCHEME]: s[tracing.ATTRS]
                      for s in integrations},
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "failures": failures,
        "absent": tracer.absent,
        "numpy": numpy.__version__,
    }
    if job["trace"]:
        result["layers"] = tracing.layer_metrics(
            tracer.spans,
            observe_count=sum(len(r) for r in rows.values()),
            output_bytes=sum(p.stat().st_size for p in files if p.exists()))
    return result


if __name__ == "__main__":
    job = json.loads(Path(sys.argv[1]).read_text())
    Path(job["result_path"]).write_text(json.dumps(run(job)))
