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
    """Signature bytes are not base58 or not 64 bytes long, distinct from a failed check."""


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
    """A path to be fingerprinted does not exist, cannot be read, is not a regular file or a
    plain directory (a symlinked directory, a FIFO, a socket or a device), or has a name that
    is not valid UTF-8 inside a tree."""


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
    """The DID document location returned 404, or an agent has no such route."""


class DocumentInvalid(DatacredError):
    """A JSON document is not JSON or not an object, or a field is missing, mistyped or
    unknown: the one refusal of every parser of a document, naming where it came from."""


# --- credentials ---

class SchemaMismatch(DatacredError):
    """Claims do not conform to a credential schema, or a schema built in code is not one."""


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
    """Base class for agent protocol and lifecycle failures.

    An inbox answers a failure with {"error": the class name, "detail": the
    message}, unsigned, and the class's http_status.
    """

    http_status = 400


class BadConfig(AgentError):
    """Agent configuration is incomplete or inconsistent."""


class PortInUse(AgentError):
    """Listen address is already bound."""


class Unreachable(AgentError):
    """Peer endpoint could not be contacted."""


class RoleForbidden(AgentError):
    """Operation is not permitted for this agent role."""


class Forbidden(AgentError):
    """An admin route was called from an address that is not loopback."""


class Refused(AgentError):
    """Base class for the failures an inbox reports to its peer.

    A requester turns a refusal's "error" back into the subclass it names;
    any other code becomes a plain AgentError.
    """


class SignatureInvalid(Refused):
    """Message envelope is malformed or its signature failed verification."""


class WrongRecipient(Refused):
    """A signed envelope is addressed to another DID than the agent that reads it."""


class StaleMessage(Refused):
    """A signed envelope's createdAt is not a timestamp within the window around now."""


class BadRequest(Refused):
    """A request body or field is missing, mistyped or empty."""


class UnsupportedMessage(Refused):
    """No handler exists for the envelope's message type."""


class PayloadTooLarge(Refused):
    """A request body exceeds the inbound size bound."""

    http_status = 413


class PolicyRejected(Refused):
    """Peer policy refused the request."""

    http_status = 403


class ConnectionInactive(Refused):
    """Operation requires an active connection."""


class CredentialRejected(Refused):
    """Received credential failed verification on receipt."""


class NoMatchingCredential(Refused):
    """No stored credential covers the requested attributes."""

    http_status = 404
