"""Parallel batch pipeline: fan assessments out over fields and z-slabs.

The paper saturates one GPU with fused kernels; a production assessment
service additionally has to saturate the *host* — many fields per
application, many applications per batch.  Two pool kinds back every
driver (``executor=`` selects one; ``"auto"`` picks for the host):

* **threads** share the input arrays zero-copy; NumPy's heavy loops
  release the GIL, so they scale once the maths starts no BLAS threads
  of its own (:func:`repro.metrics.reductions.dot`);
* **processes** attach to fields published via
  :mod:`repro.parallel.shm` — the job queue carries
  :class:`~repro.parallel.shm.SharedField` handles (name/shape/dtype,
  never bytes), so workers read the driver's pages zero-copy and each
  assessment owns a core.

* :func:`parallel_assess_dataset` / :func:`parallel_compare_pairs` — one
  task per field, per-field error isolation, results identical to the
  serial :func:`repro.core.batch.assess_dataset` regardless of worker
  count or executor (asserted in tests; the process path is
  bit-identical to serial);
* :func:`parallel_stream_field` — one huge field split into z-slabs,
  each worker producing the same mergeable accumulators
  :mod:`repro.core.streaming` carries, merged exactly like the
  multi-GPU merge.
"""

from repro.parallel.chunking import parallel_stream_field, z_chunks
from repro.parallel.executor import (
    auto_workers,
    parallel_assess_dataset,
    parallel_compare_pairs,
    process_available,
    resolve_executor,
    warm_process_pool,
)
from repro.parallel.shm import SharedField, shared_fields, shm_available

__all__ = [
    "SharedField",
    "auto_workers",
    "parallel_assess_dataset",
    "parallel_compare_pairs",
    "parallel_stream_field",
    "process_available",
    "resolve_executor",
    "shared_fields",
    "shm_available",
    "warm_process_pool",
    "z_chunks",
]
