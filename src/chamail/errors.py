"""Exception hierarchy shared across the package."""


class ChamailError(Exception):
    """Base class for all chamail errors."""


# -- account / credential store -------------------------------------------

class InvalidAddress(ChamailError):
    pass


class DuplicateAccount(ChamailError):
    pass


class UnknownAccount(ChamailError):
    pass


class WeakPassword(ChamailError):
    pass


class DuplicateSubUser(ChamailError):
    pass


class UnknownSubUser(ChamailError):
    pass


class SubUserLimit(ChamailError):
    pass


class InvalidName(ChamailError):
    pass


class PasswordCollision(ChamailError):
    """The candidate password already verifies against another credential
    of the account; login carries no sub-user name, so resolution would
    be ambiguous."""


class AuthFailed(ChamailError):
    """Single error for every authentication failure.

    Unknown account and wrong password are deliberately indistinguishable
    to the caller.
    """

    MESSAGE = "authentication failed"

    def __init__(self) -> None:
        super().__init__(self.MESSAGE)


# -- lists / policies ------------------------------------------------------

class UnknownList(ChamailError):
    pass


class DuplicateList(ChamailError):
    pass


class ListInUse(ChamailError):
    pass


class InvalidPolicy(ChamailError):
    pass


# -- persistence / sealing -------------------------------------------------

class StoreError(ChamailError):
    pass


class StoreIoError(StoreError):
    pass


class StoreFormatError(StoreError):
    """The store file is missing, truncated, or structurally invalid.
    A bad file is rejected whole, never half-loaded."""


class DecryptFailed(StoreError):
    """Wrong master key or tampered ciphertext."""


class MasterKeyError(StoreError):
    """CHAMAIL_MASTER_KEY absent or not 64 hex characters."""


# -- protocol --------------------------------------------------------------

class ImapSyntaxError(ChamailError):
    pass


class LiteralTooLarge(ImapSyntaxError):
    """A literal announcement exceeded the buffering cap. Raised before
    any literal bytes are consumed."""


class LineTooLong(ChamailError):
    """A client command line exceeded the line cap. The rest of the line
    is never read, so the session cannot resynchronise and must end."""


# -- proxy / upstream ------------------------------------------------------

class UpstreamUnavailable(ChamailError):
    pass


class SessionAborted(ChamailError):
    """Raised inside a session to tear it down fail-closed."""


class ClientGone(ChamailError):
    """A write to the client failed: the client went away, and the session
    ends at once, whatever it was waiting on."""


# -- view mapping ----------------------------------------------------------

class ViewError(SessionAborted):
    """The upstream contradicted the session's model of its mailbox. It is
    a SessionAborted, so it fails the session closed wherever it rises."""


class InconsistentInput(ViewError):
    """Rows that break seq contiguity or UID ascent (RFC 3501 §2.3.1.1)."""


class UnknownSeq(ViewError):
    """A sequence number beyond what the upstream announced, or an EXISTS
    below it."""


# -- config and manifest files --------------------------------------------

class ConfigError(ChamailError):
    """The proxy config file is missing, malformed, or inconsistent."""


class ManifestError(ChamailError):
    pass
