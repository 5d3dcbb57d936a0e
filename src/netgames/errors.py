"""Exception types shared across the package."""


class NetgamesError(Exception):
    """Base class for all package errors."""


class UnreachableError(NetgamesError):
    def __init__(self, u, v):
        super().__init__(f"no path between {u!r} and {v!r}")
        self.u = u
        self.v = v


class DisconnectedError(NetgamesError):
    pass


class TooLargeError(NetgamesError):
    pass


class InfeasibleError(NetgamesError):
    pass


class NoFeasibleActionError(NetgamesError):
    pass


class SupportTooLargeError(NetgamesError):
    pass


class StrategySpaceTooLargeError(NetgamesError):
    pass


class ZeroOptimumError(NetgamesError):
    pass


class NoConvergenceError(NetgamesError):
    def __init__(self, max_rounds):
        super().__init__(f"best-response dynamics did not settle in {max_rounds} rounds")
        self.max_rounds = max_rounds


class PreconditionError(NetgamesError, ValueError):
    """An argument outside a function's domain, such as an unknown variant or
    a sample count below one."""


class ParseError(NetgamesError):
    pass


class ValidationError(NetgamesError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
