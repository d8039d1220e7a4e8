"""Attestation tokens binding a realm's measurement to its identifier.

Tokens are signed by the platform key (Ed25519, generated deterministically
from the run seed at world construction). The claim set is serialized with
the canonical length-prefixed encoding from :mod:`csmsim.digests`, fixed
field order: measurement, realm identifier, platform measurement. A token
verifies only if the signature checks against the platform public key, so
any post-issuance modification of a serialized token is detected.

Realm owners verify peer tokens against the measurement they expect (which
they can compute from the image they know, see ``expected_for_image``) and
only then provision the attested peer identifier into their own realm.
"""

from dataclasses import dataclass
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .digests import DIGEST_SIZE, canonical_encode, measure_image
from .errors import ParseError, VerificationFailed
from .rmm import check_content_size, check_ipa_width

_CLAIMS_VERSION = b"\x01"


@lru_cache(maxsize=16)
def _private_key(key_seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(key_seed)


def platform_public_key(key_seed: bytes) -> bytes:
    return _private_key(key_seed).public_key().public_bytes_raw()


@dataclass(frozen=True)
class ClaimSet:
    rim: bytes
    realm_id: int
    platform_digest: bytes

    def encode(self) -> bytes:
        return canonical_encode(_CLAIMS_VERSION, self.rim,
                                self.realm_id.to_bytes(8, "big"),
                                self.platform_digest)


@dataclass(frozen=True)
class AttestationToken:
    claims: ClaimSet
    signature: bytes

    def to_bytes(self) -> bytes:
        return canonical_encode(self.claims.encode(), self.signature)

    def to_json(self) -> dict:
        return {"rim": self.claims.rim.hex(),
                "realm_id": self.claims.realm_id,
                "platform_digest": self.claims.platform_digest.hex(),
                "signature": self.signature.hex()}


def _decode_fields(data: bytes, expected: int) -> list:
    """Strict inverse of canonical_encode: exact field count, no slack."""
    fields, pos = [], 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise ParseError("truncated length prefix")
        n = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        if pos + n > len(data):
            raise ParseError("truncated field")
        fields.append(data[pos:pos + n])
        pos += n
    if len(fields) != expected:
        raise ParseError(f"expected {expected} fields, got {len(fields)}")
    return fields


def token_from_bytes(data: bytes) -> AttestationToken:
    claims_blob, signature = _decode_fields(data, 2)
    version, rim, rid, platform = _decode_fields(claims_blob, 4)
    if version != _CLAIMS_VERSION:
        raise ParseError(f"claims version {version!r}")
    if len(rim) != DIGEST_SIZE or len(platform) != DIGEST_SIZE or len(rid) != 8:
        raise ParseError("claim field size")
    claims = ClaimSet(rim=rim, realm_id=int.from_bytes(rid, "big"),
                      platform_digest=platform)
    return AttestationToken(claims=claims, signature=signature)


@dataclass
class OwnerExpectation:
    """What a verifier demands of a peer token before trusting its identifier."""
    expected_rim: bytes
    platform_pubkey: bytes
    expected_platform: bytes


def expected_for_image(world, image: list, ipa_width: int) -> OwnerExpectation:
    """Expectation an owner derives from a known initial image.

    The measurement is recomputed from the image alone; nothing is read from
    the realm being judged. Widths and contents the monitor would refuse
    are refused here too.
    """
    check_ipa_width(ipa_width)
    for _, content in image:
        check_content_size(content)
    rim = measure_image(ipa_width, image)
    return OwnerExpectation(expected_rim=rim,
                            platform_pubkey=platform_public_key(world.platform_key_seed),
                            expected_platform=world.platform_digest)


# ------------------------------------------------------------------ commands

def rsi_attestation_token(world, caller: int) -> AttestationToken:
    """Issue a signed token for the calling realm; only the monitor signs."""
    realm = world.require_runnable(caller)
    claims = ClaimSet(rim=realm.rim, realm_id=realm.realm_id,
                      platform_digest=world.platform_digest)
    signature = _private_key(world.platform_key_seed).sign(claims.encode())
    return AttestationToken(claims=claims, signature=signature)


def verify_token(token, expectation: OwnerExpectation) -> dict:
    """Pure verification; never raises, returns validity plus the attested id."""
    if isinstance(token, (bytes, bytearray)):
        try:
            token = token_from_bytes(bytes(token))
        except ParseError:
            return {"valid": False, "realm_id": None}
    try:
        pub = Ed25519PublicKey.from_public_bytes(expectation.platform_pubkey)
        pub.verify(token.signature, token.claims.encode())
    except (InvalidSignature, ValueError):
        return {"valid": False, "realm_id": None}
    if token.claims.rim != expectation.expected_rim:
        return {"valid": False, "realm_id": None}
    if token.claims.platform_digest != expectation.expected_platform:
        return {"valid": False, "realm_id": None}
    return {"valid": True, "realm_id": token.claims.realm_id}


def owner_release_peer_id(world, owner_realm: int, token,
                          expectation: OwnerExpectation) -> int:
    """After successful verification, provision the peer id into the owner's
    realm so it can name the peer in sharing commands."""
    verdict = verify_token(token, expectation)
    if not verdict["valid"]:
        raise VerificationFailed("peer token rejected, no identifier released")
    realm = world.realm_by_id(owner_realm)
    peer_id = verdict["realm_id"]
    if peer_id not in realm.peer_ids:
        realm.peer_ids.append(peer_id)
    world.record({"event": "provision", "realm": owner_realm, "peer": peer_id})
    return peer_id
