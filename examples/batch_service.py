#!/usr/bin/env python3
"""The batch-scheduling service through the stable ``repro.api`` facade.

Everything here imports from ``repro.api`` -- the supported public
surface -- and speaks its request/response vocabulary: every entry
point takes one validated request object (``ScheduleRequest`` /
``BatchRequest``) and returns the uniform ``ScheduleResponse``
envelope, the same objects the CLI and the ``repro serve`` network
tier use.  The walk-through:

1. compile a machine to its low-level (LMDES) form with one call;
2. schedule a workload in-process (`api.schedule`);
3. schedule the same workload in chunks with retries, a persistent
   disk cache, and typed error reporting (`api.schedule_batch`);
4. inject a seeded fault profile and show the recovered run is
   bit-for-bit identical to the clean one.

Run:  python examples/batch_service.py
"""

import tempfile

from repro import api
from repro.service import faults

MACHINE = "SuperSPARC"


def main():
    machine = api.get_machine(MACHINE)
    blocks = tuple(api.generate_blocks(
        machine, api.WorkloadConfig(total_ops=400, seed=7)
    ))

    # 1. The paper's two-tier flow in one call: HMDES -> transforms ->
    #    compiled low-level representation.
    compiled = api.compile_machine(MACHINE)
    print(f"{MACHINE}: compiled LMDES with "
          f"{len(compiled.constraints)} opclass constraints")

    # 2. One in-process run (the single-request path).  The response
    #    is the same JSON-ready envelope the server returns.
    serial = api.schedule(api.ScheduleRequest(
        machine=MACHINE, blocks=blocks, backend="bitvector",
    ))
    print(f"serial: {serial.ops} ops in {serial.cycles} cycles, "
          f"{serial.attempts} attempts (request {serial.request_id})")

    with tempfile.TemporaryDirectory() as cache_dir:
        config = api.BatchConfig(
            backend="bitvector",
            chunk_size=8,
            cache_dir=cache_dir,
            retry=api.RetryPolicy(retries=2, seed=42),
            on_error="report",
        )
        request = api.BatchRequest(
            machine=MACHINE, blocks=blocks, config=config,
        )

        # 3. The service path: chunked, retried, disk-cached.
        clean = api.schedule_batch(request)
        print(f"batch:  {clean.ops} ops across "
              f"{clean.result.chunk_count} chunks, "
              f"{clean.cache['disk_stores']} artifact(s) published")
        for failure in clean.errors:  # typed quarantine records
            print(f"  quarantined block {failure.block_index}: "
                  f"{failure.error_type}")

        # 4. Same run under a seeded fault profile: chunk 0 finds the
        #    published cache artifact corrupted (the disk tier
        #    quarantines and rebuilds it), and chunk 1 suffers a
        #    transient scheduling error.
        #    (Equivalent to REPRO_FAULTS="corrupt@0;sched@1" in the env.)
        with faults.injected(faults.parse_faults("corrupt@0;sched@1")):
            recovered = api.schedule_batch(request)
        print(f"faulted: {recovered.resilience['retries']} retry(ies), "
              f"{recovered.cache['disk_quarantined']} cache artifact(s) "
              f"quarantined, {recovered.resilience['quarantined']} "
              f"block(s) quarantined")

        identical = (
            recovered.signature() == clean.signature()
            and recovered.cycles == clean.cycles
        )
        print(f"recovered output identical to clean run: {identical}")
        assert identical

        # The batch envelope matches the serial one bit-for-bit.
        assert clean.signature() == serial.signature()


if __name__ == "__main__":
    main()
