"""Exception types shared across the package."""


class SplitchainError(Exception):
    """Base class for all protocol and simulator errors."""


class InvalidSignature(SplitchainError):
    pass


class UnknownUser(SplitchainError):
    pass


class UnknownAsset(SplitchainError):
    pass


class AssetLocked(SplitchainError):
    pass


class BrokenChain(SplitchainError):
    """Ledger digest chain broken; carries the offending height."""

    def __init__(self, height, message=None):
        self.height = height
        super().__init__(message or f"broken digest chain at height {height}")


class Stalled(SplitchainError):
    """Quorum unreachable: too many faulty validators."""


class NoQuorum(SplitchainError):
    pass


class TriggerNotMet(SplitchainError):
    pass


class UnknownInitiator(SplitchainError):
    pass


class UnregisteredValidator(SplitchainError):
    pass


class DuplicateChainId(SplitchainError):
    pass


class AlreadyMember(SplitchainError):
    pass


class StateDivergence(SplitchainError):
    pass


class AssetIdCollision(SplitchainError):
    pass


class TooFew(SplitchainError):
    pass


class InvalidParams(SplitchainError):
    pass


class NotOwner(SplitchainError):
    pass


class UnknownLock(SplitchainError):
    pass


class InvalidProof(SplitchainError):
    pass


class UnknownNode(SplitchainError):
    pass


class ConfigError(SplitchainError):
    """Scenario or parameter file rejected; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
