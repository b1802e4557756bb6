"""Service layer: staging/smoothing, verification, and the archive API.

Implements the operational side of Sections 2, 3.1 and 6: the staging tier
that smooths bursty ingress onto mean-provisioned write drives, the
verification manager that fully reads every written platter with the read
technology before staged data is dropped, and the put/get/delete front end.
"""

from .frontend import (
    ArchiveService,
    FileTooLargeError,
    RequestDeadlineExceeded,
    RetryPolicy,
    ServiceConfig,
    ServiceRetryStats,
    decrypt,
    encrypt,
)
from .ledger import GlassLedger, LedgerEntry, LedgerIntegrityError
from .provisioning import (
    MduPlan,
    VerificationPlan,
    libraries_needed,
    read_drive_headroom,
    verification_backlog,
)
from .staging import (
    StagingState,
    StagingTier,
    provision_write_rate,
    simulate_staging,
)
from .verification import (
    PlatterVerificationReport,
    SectorVerdict,
    VerificationManager,
)

__all__ = [
    "ArchiveService",
    "FileTooLargeError",
    "GlassLedger",
    "LedgerEntry",
    "LedgerIntegrityError",
    "MduPlan",
    "VerificationPlan",
    "libraries_needed",
    "read_drive_headroom",
    "verification_backlog",
    "RequestDeadlineExceeded",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceRetryStats",
    "decrypt",
    "encrypt",
    "StagingState",
    "StagingTier",
    "provision_write_rate",
    "simulate_staging",
    "PlatterVerificationReport",
    "SectorVerdict",
    "VerificationManager",
]
