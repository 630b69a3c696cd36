"""Archive-scale streamed instance construction (millions of photos).

The classic pipeline materialises a dense ``n × n`` similarity matrix and
then throws most of it away (``PARInstance.build`` → ``sparsify_instance``)
— fine at 10^3 photos, fatal at 10^6.  This package fuses the three steps
into one bounded-memory stream::

    embeddings ──► banded SimHash candidates ──► τ-verified cosines ──► CSR

never holding an O(n²) object at any point.  The fused build is
*bit-identical* to the unfused LSH pipeline at matched seeds (the oracle
in ``tests/oracles/lsh.py``): both consume the same seeded hyperplanes,
produce equal candidate sets, verify through the shared
:func:`repro.sparsify.simhash.verify_candidate_pairs` kernel (per-pair
values independent of chunking), and assemble the same canonical CSR
layout via :meth:`SparseSimilarity.from_pairs` — so solve picks match
bit for bit.  See ``docs/million_scale.md``.

:func:`lsh_candidate_keys` is the one LSH pair emitter: the builder,
``sparsify_instance(method="lsh")`` and live archive creation all reach
it.
"""

from repro.scale.builder import (
    ScaleBuildReport,
    build_streamed_instance,
    lsh_candidate_keys,
    save_streamed_instance,
)
from repro.scale.synthetic import synthetic_archive

__all__ = [
    "ScaleBuildReport",
    "build_streamed_instance",
    "lsh_candidate_keys",
    "save_streamed_instance",
    "synthetic_archive",
]
