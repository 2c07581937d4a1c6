"""View-change helpers: request validation and new-view state selection.

The view-change algorithm (paper, Section II-C) has three steps: detect
the failure, exchange VC-REQUEST messages summarising executed
transactions, and have the new primary propose a new view from ``nf``
valid requests.  Replicas receiving the NV-PROPOSE pick the longest
consecutive sequence of executed transactions among the included
requests, execute what they miss, and roll back anything they executed
beyond it.  These pure functions implement the validation and selection
logic so they can be unit- and property-tested independently of the
replica state machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.crypto.authenticator import Authenticator
from repro.crypto.hashing import flat_digest

if TYPE_CHECKING:  # imported lazily: protocols import this module at load time
    from repro.protocols.recovery import LogEntry, ViewChangeRequest


def proposal_digest(sequence: int, view: int, batch_digest: bytes) -> bytes:
    """The digest ``h = D(k || v || <T>_c)`` signed by SUPPORT messages."""
    return flat_digest("poe-proposal", sequence, view, batch_digest)


def validate_view_change_request(
    request: ViewChangeRequest,
    auth: Authenticator,
    expected_view: int,
    verify_certificates: bool = True,
) -> bool:
    """Check one VC-REQUEST (paper, Figure 5, nv-propose preconditions).

    A request is valid when it targets the expected view and its executed
    entries form a consecutive sequence starting right after the sender's
    stable checkpoint, each carrying a certificate for the right digest.
    Certificates are threshold signatures in threshold mode; in MAC mode
    they are supporter sets whose authenticity cannot be re-checked by a
    third party, so ``verify_certificates=False`` skips the cryptographic
    check (the quorum-intersection argument still applies).

    In threshold mode a missing certificate is a *rejection*, not a skip:
    an executed entry only ever enters the certified log together with the
    certificate that view-committed it, so a certificate-less entry is
    necessarily fabricated (a Byzantine replica forging history for slots
    it never certified) and admitting it would let forged batches into the
    new-view prefix selection.
    """
    if request.view != expected_view:
        return False
    expected_sequence = request.stable_checkpoint + 1
    for entry in request.executed:
        if entry.sequence != expected_sequence:
            return False
        expected_sequence += 1
        expected_digest = proposal_digest(entry.sequence, entry.view,
                                          entry.batch.digest())
        if entry.digest != expected_digest:
            return False
        if verify_certificates:
            if entry.proof is None:
                return False
            if not auth.threshold.verify(entry.proof, expected_digest):
                return False
    return True


def longest_consecutive_prefix(
    requests: Sequence[ViewChangeRequest],
    f: int = 0,
    trust_certificates: bool = False,
) -> Tuple[Dict[int, LogEntry], int]:
    """Select the new-view execution state from a set of VC-REQUESTs.

    Returns the union of executed entries restricted to the longest
    consecutive prefix (the paper's ``E'``) and ``kmax``, the sequence
    number of its last transaction (-1 if nothing was executed anywhere).

    The selection walks sequence numbers upward from the highest stable
    checkpoint: a sequence number is part of ``E'`` while at least one
    request reports an entry for it (requests are consecutive by
    validation, so the union is consecutive as well).  When requests
    disagree about a slot, the best-supported entry wins (most requests
    reporting the same batch; with *trust_certificates*, an entry carrying
    a verified certificate beats any uncertified plurality; ties break on
    the smallest batch digest) — a fast-path-completed batch was executed
    by ``nf`` replicas, so it out-supports any single forged history.

    ``kmax`` is additionally anchored at the highest *stable checkpoint*
    reported by any request: a stable checkpoint proves a quorum made that
    state durable, so the new view must never start (or roll back to)
    below it — even when the requests carrying executed entries all come
    from replicas whose checkpoints lag behind.  Entries at or below that
    anchor stay in the returned prefix so lagging replicas can execute
    them directly, but only when a verified certificate (threshold mode)
    or ``f + 1`` matching requests back them: the durable region is
    exactly where a Byzantine replica forging history for slots it never
    held could otherwise rewrite settled state, so bare single-request
    claims there are left to checkpoint state transfer instead
    (*f* = 0 keeps the permissive pre-certificate behaviour for callers
    that have no fault bound to enforce).
    """
    max_checkpoint = max((r.stable_checkpoint for r in requests), default=-1)
    support: Dict[int, Dict[bytes, List[LogEntry]]] = {}
    certified: Dict[int, Dict[bytes, bool]] = {}
    for request in requests:
        for entry in request.executed:
            batch_digest = entry.batch.digest()
            by_digest = support.setdefault(entry.sequence, {})
            by_digest.setdefault(batch_digest, []).append(entry)
            if trust_certificates and entry.proof is not None:
                certified.setdefault(entry.sequence, {})[batch_digest] = True

    prefix: Dict[int, LogEntry] = {}
    for sequence in sorted(s for s in support if s <= max_checkpoint):
        entry = _best_supported_entry(support, certified, sequence, f + 1)
        if entry is not None:
            prefix[sequence] = entry
    kmax = max_checkpoint
    while True:
        # Above the anchor a lone honest request may legitimately be the
        # only witness of the speculative tail, so an *uncontested* entry
        # needs just one supporter.  A contested slot — two digests
        # competing — is different: before the first checkpoint stabilises
        # the anchor is -1 and every slot sits up here, so a single forged
        # history tying a lone honest witness would come down to the
        # digest tiebreak.  Disagreement therefore demands a verified
        # certificate or f + 1 matching requests; slots nobody can prove
        # are left to client retransmission and state transfer.
        candidates = support.get(kmax + 1)
        contested = candidates is not None and len(candidates) > 1
        minimum = (f + 1) if contested and not certified.get(kmax + 1) else 1
        entry = _best_supported_entry(support, certified, kmax + 1, minimum)
        if entry is None:
            break
        kmax += 1
        prefix[kmax] = entry
    return prefix, kmax


def _best_supported_entry(
    support: Dict[int, Dict[bytes, List[LogEntry]]],
    certified: Dict[int, Dict[bytes, bool]],
    sequence: int,
    minimum: int,
    prefer_proof: bool = False,
) -> Optional[LogEntry]:
    """The quorum-selection core shared by both prefix selectors.

    Certified digests form the candidate pool when any exist (certificates
    beat plurality); otherwise the best-supported digest wins and must
    reach *minimum* matching requests.  Ties break on the smallest digest
    so every replica selects identically.  With *prefer_proof* (Zyzzyva,
    whose speculative entries mostly carry none) the first of the winning
    digest's entries that has a proof is returned, so adopters can store
    the commit certificate alongside the re-executed slot; elsewhere every
    honest entry has a proof and the first entry is as good as any.
    """
    candidates = support.get(sequence)
    if not candidates:
        return None
    certified_digests = certified.get(sequence, {})
    pool = {d: entries for d, entries in candidates.items()
            if d in certified_digests} or candidates
    digest_key, entries = min(pool.items(),
                              key=lambda item: (-len(item[1]), item[0]))
    if digest_key not in certified_digests and len(entries) < minimum:
        return None
    if prefer_proof:
        for entry in entries:
            if entry.proof is not None:
                return entry
    return entries[0]


class SpeculativeAnchor(NamedTuple):
    """The durable point a set of Zyzzyva VC requests proves.

    * ``anchor`` — the highest of every reported stable checkpoint and
      every *corroborated* commit-certificate sequence (see below);
    * ``checkpoint`` — the highest reported *stable checkpoint* (a state
      digest and a serveable state-transfer snapshot exist exactly at
      checkpoint boundaries, unlike a commit-certificate anchor);
    * ``checkpoint_digest`` — the state digest at ``checkpoint``, but only
      when ``f + 1`` requests agree on it (one Byzantine request must not
      be able to claim an arbitrary digest for the quorum's durable
      state); ``None`` otherwise;
    * ``witness`` — the ``replica_id`` of a request proving the anchor, a
      peer a lagging replica can request a state transfer from;
    * ``certified`` — the :func:`corroborated_certificates` the anchor was
      computed from, which reconciliation reuses.
    """

    anchor: int
    checkpoint: int
    checkpoint_digest: Optional[bytes]
    witness: Optional[str]
    certified: Dict[int, Tuple[str, bytes]]


def corroborated_certificates(
    requests: Sequence[ViewChangeRequest],
    f: int,
) -> Dict[int, Tuple[str, bytes]]:
    """Commit certificates carried by at least ``f + 1`` distinct requests.

    MAC mode cannot re-verify a certificate's responder authenticators, so
    a certificate carried by a *single* request is an unverifiable claim —
    one Byzantine replica could fabricate it, and letting it override
    support counting (or raise the anchor) would hand the forger exactly
    the power the certificates exist to remove.  A **genuine** certificate
    clears the bar naturally: the client broadcasts it to everyone and the
    ``2f + 1`` responders validated and stored it, so any ``2f + 1``
    view-change requests include at least ``f + 1`` honest carriers.
    Carriers are counted per *request*, not per occurrence — a request
    shipping the same certificate at request level and on its entry must
    not corroborate itself.  Returns ``sequence -> (batch_id,
    result_digest)`` for the certificates that qualify.
    """
    carriers: Dict[Tuple[int, str, bytes], int] = {}
    for request in requests:
        carried: set = set()
        certificate = request.certificate
        if certificate is not None:
            carried.add((certificate.sequence, certificate.batch_id,
                         certificate.result_digest))
        for entry in request.executed:
            entry_cert = entry.proof
            if entry_cert is not None:
                carried.add((entry_cert.sequence, entry_cert.batch_id,
                             entry_cert.result_digest))
        for key in carried:
            carriers[key] = carriers.get(key, 0) + 1
    corroborated: Dict[int, Tuple[str, bytes]] = {}
    for (sequence, batch_id, result_digest), count in sorted(carriers.items()):
        if count >= f + 1:
            corroborated.setdefault(sequence, (batch_id, result_digest))
    return corroborated


def speculative_anchor(
    requests: Sequence[ViewChangeRequest],
    f: int,
) -> SpeculativeAnchor:
    """Compute the :class:`SpeculativeAnchor` of a set of VC requests."""
    anchor = -1
    witness: Optional[str] = None
    checkpoint_digests: Dict[Tuple[int, bytes], int] = {}
    best_checkpoint = -1
    for request in requests:
        stable = request.stable_checkpoint
        if stable > anchor:
            anchor = stable
            witness = request.replica_id or witness
        best_checkpoint = max(best_checkpoint, stable)
        digest_claim = request.checkpoint_digest
        if stable >= 0 and digest_claim:
            key = (stable, digest_claim)
            checkpoint_digests[key] = checkpoint_digests.get(key, 0) + 1
    # Certificate-based anchors need f+1 carriers: a single request's
    # certificate is an unverifiable claim that would otherwise let one
    # forger re-base the new view past a permanent gap.
    certified = corroborated_certificates(requests, f)
    for sequence in certified:
        if sequence > anchor:
            anchor = sequence
            for request in requests:
                certificate = request.certificate
                if certificate is not None and certificate.sequence == sequence:
                    witness = request.replica_id or witness
                    break
            else:
                for request in requests:
                    if any(entry.proof is not None
                           and entry.sequence == sequence
                           for entry in request.executed):
                        witness = request.replica_id or witness
                        break
    checkpoint_digest: Optional[bytes] = None
    if best_checkpoint >= 0:
        for (stable, digest_claim), count in sorted(checkpoint_digests.items()):
            if stable == best_checkpoint and count >= f + 1:
                checkpoint_digest = digest_claim
                break
    return SpeculativeAnchor(anchor, best_checkpoint, checkpoint_digest, witness,
                             certified)


def reconcile_speculative_histories(
    requests: Sequence[ViewChangeRequest],
    f: int,
    anchor_info: Optional[SpeculativeAnchor] = None,
) -> Tuple[Dict[int, LogEntry], int]:
    """Select the new-view history from speculative VC requests (Zyzzyva).

    Zyzzyva's execution is speculative, so the new view cannot adopt any
    single replica's history at face value.  Reconciliation follows the
    view-change rule, strengthened with per-slot commit certificates:

    * the adopted history is **anchored** at the highest durable point any
      request proves: a stable checkpoint or the sequence number of a
      commit certificate (a client-distributed certificate backed by
      ``2f + 1`` matching speculative responses — carried both per slot
      and as the request-level anchor certificate);
    * a slot's entry is adoptable when it carries a **corroborated commit
      certificate** (the same certificate shipped by at least ``f + 1``
      requests — see :func:`corroborated_certificates`; certified entries
      beat any plurality, above or below the anchor) or when at least
      ``f + 1`` requests report the same batch for the slot: any
      fast-path-completed request was executed by every honest replica,
      so it appears in at least ``f + 1`` of any ``2f + 1`` requests and
      is never lost;
    * slots **at or below** the anchor with no adoptable entry are left to
      checkpoint state transfer: they are durable system-wide, and
      adopting a bare plurality there would let one forged history rewrite
      slots the quorum already settled (the Hellings & Rahnama corner);
      a slot **above** the anchor with no adoptable entry ends the prefix.

    A request's ``certificate`` is its anchor commit certificate and an
    entry's ``proof`` its per-slot one, either may be ``None``.
    *anchor_info* is ``speculative_anchor(requests, f)``, computed here
    unless the caller already holds it.  Returns the adopted prefix and
    ``kmax``, its last sequence number.
    """
    if anchor_info is None:
        anchor_info = speculative_anchor(requests, f)
    anchor = anchor_info.anchor
    certificates = anchor_info.certified
    support: Dict[int, Dict[bytes, List[LogEntry]]] = {}
    certified: Dict[int, Dict[bytes, bool]] = {}
    for request in requests:
        for entry in request.executed:
            batch_digest = entry.batch.digest()
            by_digest = support.setdefault(entry.sequence, {})
            by_digest.setdefault(batch_digest, []).append(entry)
            corroborated = certificates.get(entry.sequence)
            if corroborated is not None and \
                    corroborated[0] == entry.batch.batch_id:
                certified.setdefault(entry.sequence, {})[batch_digest] = True

    prefix: Dict[int, LogEntry] = {}
    for sequence in sorted(s for s in support if s <= anchor):
        entry = _best_supported_entry(support, certified, sequence, f + 1,
                                      prefer_proof=True)
        if entry is not None:
            prefix[sequence] = entry
    kmax = anchor
    while True:
        entry = _best_supported_entry(support, certified, kmax + 1, f + 1,
                                      prefer_proof=True)
        if entry is None:
            break
        kmax += 1
        prefix[kmax] = entry
    return prefix, kmax
