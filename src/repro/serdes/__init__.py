"""SERDES framing: the switch-fabric context of the paper's Fig 1.

8b/10b line coding (run-length/DC-balance guarantees for the CDR and
the AC-coupled CML path), serializer/deserializer with K28.5 comma
alignment, and the link reports; :func:`repro.link.run_framed_link` runs
the full framed link.
"""

from .encoding import (
    Encoder8b10b,
    Decoder8b10b,
    encode_bytes,
    CodingError,
)
from .serializer import (
    Serializer,
    Deserializer,
    align_to_comma,
    LinkReport,
    LinkBatchReport,
)

__all__ = [
    "Encoder8b10b",
    "Decoder8b10b",
    "encode_bytes",
    "CodingError",
    "Serializer",
    "Deserializer",
    "align_to_comma",
    "LinkReport",
    "LinkBatchReport",
]
