"""Online serving: a resident ingest + query service over the estimator.

The batch CLI paths run once and exit; this package keeps one process
alive that continuously ingests from a pluggable stream source
(:mod:`repro.serving.sources`), advances one resident estimator per
named condition profile in place, and answers concurrent HTTP reads
against *published snapshots* — never against the live estimators — so
queries cannot observe (or cause) a torn state (:mod:`repro.serving.service`).  Durability reuses the
recovery checkpoint format verbatim: every publish can commit a
generation, and a SIGTERM'd service resumes to the bit-for-bit digest of
an uninterrupted run (the ``serve-snapshot-equivalence`` contract in
:mod:`repro.verify.contracts` pins the read side of the same identity).

See DESIGN.md §12 for the architecture and README "Running the service"
for the curl-able quickstart.
"""

from .service import ImplicationService, ServeConfig, ServedSnapshot, offline_reference
from .sources import (
    ArraySource,
    ProfileSource,
    PushBacklogFull,
    PushSource,
    StreamSource,
    make_source,
)

__all__ = [
    "ArraySource",
    "ImplicationService",
    "ProfileSource",
    "PushBacklogFull",
    "PushSource",
    "ServeConfig",
    "ServedSnapshot",
    "StreamSource",
    "make_source",
    "offline_reference",
]
