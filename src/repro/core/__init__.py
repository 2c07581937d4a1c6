"""Proof-of-Execution (PoE): the paper's primary contribution.

PoE reaches consensus in three linear phases by executing transactions
*speculatively* once they are view-committed, and makes that speculation
safe through rollback during view-changes:

* :mod:`repro.core.messages` -- PROPOSE, SUPPORT, CERTIFY and INFORM
  message types (paper, Figure 3); VC-REQUEST and NV-PROPOSE (Figure 5)
  are the primary-backup layer's, in :mod:`repro.protocols.recovery`.
* :mod:`repro.core.replica` -- the PoE replica state machine, covering the
  threshold-signature and MAC instantiations of the normal case.
* :mod:`repro.core.view_change` -- validation and new-view computation
  helpers used by the view-change algorithm.
* :mod:`repro.core.client` -- the PoE client(-pool), which considers a
  transaction executed after ``nf`` identical INFORM messages.
"""

from repro.core.messages import (
    PoePropose,
    PoeSupport,
    PoeCertify,
    PoeCommitVote,
)
from repro.core.replica import PoeReplica
from repro.core.client import PoeClientPool
from repro.core.view_change import (
    longest_consecutive_prefix,
    validate_view_change_request,
)

__all__ = [
    "PoePropose",
    "PoeSupport",
    "PoeCertify",
    "PoeCommitVote",
    "PoeReplica",
    "PoeClientPool",
    "longest_consecutive_prefix",
    "validate_view_change_request",
]
