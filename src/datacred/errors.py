"""Exception hierarchy shared across the toolkit.

Every error raised by datacred derives from DatacredError so callers can
catch one type at an API boundary. Subclasses are grouped by the module
that raises them.
"""


class DatacredError(Exception):
    """Base class for all datacred errors."""


# --- canonical JSON ---

class CanonicalizationError(DatacredError):
    """Value cannot be canonically serialized."""


class NonFiniteNumber(CanonicalizationError):
    """NaN or infinity encountered; canonical JSON has no representation."""


class NonIntegerNumber(CanonicalizationError):
    """Non-integral float encountered; signing documents carry integers only."""


class IntegerOutOfRange(CanonicalizationError):
    """Integer magnitude exceeds 2**53; exactness across parsers not guaranteed."""


# --- keys and signatures ---

class BadSeedLength(DatacredError):
    """Key seed is not exactly 32 bytes."""


class MalformedKey(DatacredError):
    """Public key material is structurally invalid (wrong length/encoding)."""


class MalformedSignature(DatacredError):
    """Signature material is structurally invalid, distinct from a failed check."""


# --- wallet ---

class WalletError(DatacredError):
    """Base class for wallet storage failures."""


class WrongPassphrase(WalletError):
    """Authenticated decryption failed for the supplied passphrase."""


class CorruptWallet(WalletError):
    """Wallet envelope is structurally damaged."""


class NoSuchEntry(WalletError):
    """Requested label is not present in the wallet."""


# --- fingerprints ---

class UnreadablePath(DatacredError):
    """A path to be fingerprinted does not exist, cannot be read, or is not a regular file or a
    plain directory (a symlinked directory, a FIFO, a socket or a device)."""


class SymlinkEscape(DatacredError):
    """A symbolic link points outside the tree being fingerprinted."""


class AlgorithmUnsupported(DatacredError):
    """Fingerprint names a digest algorithm this toolkit does not compute."""


# --- DIDs and resolution ---

class MalformedDid(DatacredError):
    """String does not parse as a decentralized identifier."""


class WrongMethod(DatacredError):
    """Operation applies to a different DID method."""


class BadKey(DatacredError):
    """Key bytes unsuitable for building an identifier."""


class UnsupportedMethod(DatacredError):
    """No resolver backend handles this DID method."""


class FetchFailed(DatacredError):
    """Network or HTTP failure fetching a DID document or registry, or an unreadable local file."""


class NotFound(DatacredError):
    """The DID document location returned 404."""


class DocumentInvalid(DatacredError):
    """A fetched DID document fails validation, or a JSON file is not JSON or not an object."""


# --- credentials ---

class SchemaMismatch(DatacredError):
    """Claims do not conform to the credential schema."""


class BadDates(DatacredError):
    """Expiration does not fall strictly after issuance."""


class WrongIssuerKey(DatacredError):
    """Key does not control the revocation registry's issuer identity."""


class NoHashClaim(DatacredError):
    """Credential carries no dataset-hash claim to check a binding against."""


# --- presentations ---

class EmptyCredentials(DatacredError):
    """A presentation needs at least one credential."""


class EmptyChallenge(DatacredError):
    """A presentation proof requires a non-empty verifier challenge."""


# --- agent service ---

class AgentError(DatacredError):
    """Base class for agent protocol and lifecycle failures."""


class BadConfig(AgentError):
    """Agent configuration is incomplete or inconsistent."""


class PortInUse(AgentError):
    """Listen address is already bound."""


class Unreachable(AgentError):
    """Peer endpoint could not be contacted."""


class SignatureInvalid(AgentError):
    """Message envelope signature failed verification."""


class PolicyRejected(AgentError):
    """Peer policy refused the request."""


class ConnectionInactive(AgentError):
    """Operation requires an active connection."""


class CredentialRejected(AgentError):
    """Received credential failed verification on receipt."""


class NoMatchingCredential(AgentError):
    """No stored credential covers the requested attributes."""


class RoleForbidden(AgentError):
    """Operation is not permitted for this agent role."""
