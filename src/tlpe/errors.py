"""Exception types shared across the engine."""


class TlpeError(Exception):
    """Base class for all engine errors.  `kind` is a stable
    machine-readable tag."""
    kind = "error"


class ParseError(TlpeError):
    kind = "parse"

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} at line {line}, column {col}")
        self.msg = msg
        self.line = line
        self.col = col


class DirectiveError(TlpeError):
    """Malformed or inconsistent directive (bad index spec, bad table spec...)."""
    kind = "directive"


class StoreError(TlpeError):
    """Illegal clause-store operation (assert to static predicate, rule into
    a trie-indexed predicate, ...)."""
    kind = "store"


class EvalError(TlpeError):
    """Runtime evaluation error; its `kind` is given per error."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail
